#!/usr/bin/env python3
"""Steadiness report for the perfbench benchmark.

    python3 perfbench/steady.py --out perfbench/STEADINESS.md

Runs every workload of BENCHMARK.json once per seed (seeds 1..SEEDS), SETS
times over, with tracing off. For each end-to-end metric it prints the
median, the quartiles and the spread (q3 - q1) / median of every set, next
to the metric's bound, and the drift of the set medians against the first.
It then checks determinism: the deterministic metrics must read exactly the
same when one seed is run twice, on a seed from the sets and on a held-out
seed never used while the benchmark was tuned.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# Deterministic outputs: they must repeat exactly for a fixed seed.
DETERMINISTIC_E2E = ["nae"]
DETERMINISTIC_LAYER = ["engine.work_per_row", "engine.evals_per_row", "udf.execs",
                       "quadtree.compressions", "quadtree.removed_nodes", "quadtree.nodes",
                       "journal.bytes_per_obs"]
HELD_OUT_SEED = 1000003
SEEDS = 10
SETS = 2
# Determinism runs only need the measured ops, not the time-filling ones
# after them, so they pass a short --seconds.
DET_SECONDS = 5


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit("run failed (%s seed %d): %s" % (workload, seed, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    host = json.loads(lines[-2])["host"] if len(lines) > 1 else {}
    if not res["correct"] or res["failed"]:
        raise SystemExit("incorrect run (%s seed %d): %s" % (workload, seed, lines[-1]))
    return res, host, time.time() - t0


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="", help="also write the report to this file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    e2e = bench["end_to_end"]

    report = []
    say = report.append
    host = None
    for w in names:
        sets = []
        for s in range(SETS):
            vals = {m["name"]: [] for m in e2e}
            for seed in range(1, SEEDS + 1):
                res, host, took = run(w, seed, seconds, 0)
                for m in e2e:
                    vals[m["name"]].append(res["metrics"][m["name"]]["value"])
                print("%s set %d seed %d: %.1fs" % (w, s + 1, seed, took), file=sys.stderr)
            sets.append(vals)
        say("### %s (%d seeds x %d sets, %ds runs)\n" % (w, SEEDS, SETS, seconds))
        say("| metric | bound | " + " | ".join("set %d median [q1, q3] spread" % (i + 1) for i in range(SETS))
            + " | max drift | verdict |")
        say("|---|---|" + "---|" * SETS + "---|---|")
        for m in e2e:
            cells, meds, worst = [], [], 0.0
            for vals in sets:
                q1, med, q3 = quartiles(vals[m["name"]])
                spread = (q3 - q1) / med if med else float("inf")
                worst = max(worst, spread)
                meds.append(med)
                cells.append("%.6g [%.6g, %.6g] %.3f" % (med, q1, q3, spread))
            drift = max(abs(x - meds[0]) / meds[0] for x in meds) if meds[0] else float("inf")
            bound = m["bound"]
            if m["name"] == "setup_s":
                verdict = "ok" if drift <= bound else "DRIFT"
            elif worst <= bound / 3 and drift <= bound:
                verdict = "steady"
            elif worst <= bound and drift <= bound:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
            say("| %s | %.2f | %s | %.3f | %s |" % (m["name"], bound, " | ".join(cells), drift, verdict))
        for m in [x for x in e2e if x["name"] in DETERMINISTIC_E2E]:
            same = all(sets[0][m["name"]] == s[m["name"]] for s in sets)
            say("\n%s repeats exactly per seed across sets: %s" % (m["name"], "yes" if same else "NO"))
        say("")

        say("Deterministic metrics (two traced and two untraced %ds runs per seed):\n" % DET_SECONDS)
        for seed in (1, HELD_OUT_SEED):
            a, _, _ = run(w, seed, DET_SECONDS, 1)
            b, _, _ = run(w, seed, DET_SECONDS, 1)
            c, _, _ = run(w, seed, DET_SECONDS, 0)
            d, _, _ = run(w, seed, DET_SECONDS, 0)
            pairs = [(k, a["metrics"][k]["value"], b["metrics"][k]["value"]) for k in DETERMINISTIC_LAYER]
            pairs += [(k, c["metrics"][k]["value"], d["metrics"][k]["value"]) for k in DETERMINISTIC_E2E]
            ok = all(x == y for _, x, y in pairs)
            say("- seed %d: %s — %s" % (seed, "repeat exactly" if ok else "DIFFER",
                                        ", ".join("%s=%.10g" % (k, x) if x == y else "%s=%.10g/%.10g" % (k, x, y)
                                                  for k, x, y in pairs)))
            say("  tracing overhead (share of untraced ops/s lost): %.3f"
                % a["metrics"]["trace.overhead"]["value"])
        say("")

    if host:
        say("Host: %s, nproc %s, GOMAXPROCS %s, %s, commit %s, source %s." % (
            host.get("cpu"), host.get("nproc"), host.get("gomaxprocs"), host.get("go"),
            host.get("commit"), host.get("source")))
    text = "\n".join(report) + "\n"
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)


if __name__ == "__main__":
    main()
