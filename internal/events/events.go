// Package events is the causal event spine of the feedback loop: a
// lock-free, fixed-size, per-subsystem ring buffer of structured events that
// threads one causal ID through an observation's entire journey — minted at
// core.Publisher.Observe, carried through the batch drain, the journal
// frame, the replication transport's send and receive, the follower apply,
// and the epoch publish — so `mlqtool trace <id>` can reconstruct any
// record's end-to-end path and per-hop lag after the fact.
//
// On top of the rings sits a black-box flight recorder: fault sites (engine
// panic isolation, breaker opens, deadline censoring, journal truncation,
// replica failover) call Trigger, which freezes the last N events of every
// subsystem into a CRC-framed dump file that `mlqtool blackbox` decodes —
// the post-mortem for a chaos run without re-running it.
//
// The overhead contract mirrors the telemetry layer's: the prediction hot
// path emits nothing at all, and every emission site behind a nil *Recorder
// costs exactly one pointer check (all methods are nil-safe). Emission
// itself is lock-free — a fetch-add to claim a slot plus atomic word stores
// — so it is safe under any lock the instrumented subsystems hold. Time
// enters only through telemetry.Clock (detertime-clean: tests inject a
// FakeClock and replay identical event timelines), ordering comes from a
// logical clock that is total across subsystems, and causal IDs come from a
// seeded splitmix64 stream, so two runs with the same seed mint the same
// IDs.
package events

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mlq/internal/telemetry"
)

// Subsystem names one event ring. Every subsystem keeps its own ring so a
// chatty component (the replication stream) cannot evict the sparse,
// high-value events of a quiet one (a breaker open in the engine).
type Subsystem uint8

// The instrumented subsystems.
const (
	SubCore        Subsystem = iota // core.Publisher: accept, drain, publish
	SubJournal                      // observation journal: append, reset, torn tail
	SubReplica                      // replica fleet: send, receive, apply, failover
	SubEngine                       // query engine: panics, breakers, censoring
	SubBufferCache                  // buffer cache: retry exhaustion, deadlines
	SubHarness                      // experiment harness: run-level markers

	// NumSubsystems bounds the ring array; keep it last.
	NumSubsystems
)

// String names the subsystem for rendering.
func (s Subsystem) String() string {
	switch s {
	case SubCore:
		return "core"
	case SubJournal:
		return "journal"
	case SubReplica:
		return "replica"
	case SubEngine:
		return "engine"
	case SubBufferCache:
		return "buffercache"
	case SubHarness:
		return "harness"
	default:
		return fmt.Sprintf("Subsystem(%d)", int(s))
	}
}

// Kind classifies one event. The observation-journey kinds (Observe through
// EpochPublish) are the hops `mlqtool trace` reconstructs; the fault kinds
// are what the flight recorder dumps around.
type Kind uint8

const (
	// KindNone marks an empty ring slot; it never appears in a dump.
	KindNone Kind = iota

	// KindObserve: an observation was accepted by the publisher and the
	// causal ID minted for it assigned. A = accepted sequence.
	KindObserve
	// KindBatchDrain: the writer goroutine folded the observation into the
	// live tree as part of a batch.
	KindBatchDrain
	// KindJournalAppend: the observation's frame reached the crash-safety
	// journal. A = accepted sequence.
	KindJournalAppend
	// KindSend: the replication stream handed the record to the transport.
	// A = group sequence, actor = destination replica.
	KindSend
	// KindRecv: a follower took the record off its inbox. A = group
	// sequence, actor = receiving replica.
	KindRecv
	// KindApply: a follower folded the record into its model. A = group
	// sequence, actor = applying replica.
	KindApply
	// KindEpochPublish: a fresh snapshot was published. A = epoch,
	// B = sequence watermark the snapshot covers (every record with
	// sequence <= B is inside it), actor = publishing replica (0 = the
	// primary publisher itself).
	KindEpochPublish

	// KindJournalReset: a checkpoint truncated the journal. A = records
	// dropped (all of them covered by the durable save that preceded it).
	KindJournalReset
	// KindJournalTorn: replay cut a torn/corrupt tail. A = records
	// recovered, B = bytes cut.
	KindJournalTorn
	// KindPanic: a UDF execution panicked and was isolated. A = cumulative
	// recovered panics for the predicate.
	KindPanic
	// KindBreakerOpen: a Guard's circuit breaker opened. A = consecutive
	// rejections that tripped it.
	KindBreakerOpen
	// KindCensor: a deadline-aborted execution's observation was censored.
	KindCensor
	// KindRetryExhausted: a buffer-cache read failed after its full retry
	// budget. A = attempts.
	KindRetryExhausted
	// KindReadDeadline: a buffer-cache read was abandoned by its latency
	// deadline. A = attempts made before abandoning.
	KindReadDeadline
	// KindFailover: the replica group moved to a new term. A = old term,
	// B = new term.
	KindFailover
	// KindTrigger: the flight recorder fired. A = dump sequence number.
	KindTrigger
	// KindMark: a harness-level marker (scenario boundaries and the like).
	KindMark
	// KindResize: a live byte-budget change — a quadtree limit moved
	// through the publisher or a buffer cache changed capacity. A = old
	// budget, B = new budget (bytes for models, pages for caches).
	KindResize

	// KindConnUp: a network transport link came up. A = cumulative
	// reconnects on the link (0 for the first establishment), actor =
	// destination replica index + 1.
	KindConnUp
	// KindConnDown: a network transport link went down (peer reset, write
	// failure, liveness loss, or an administrative partition). A =
	// heartbeats missed on the link so far, actor = destination replica
	// index + 1.
	KindConnDown
	// KindBootstrap: a snapshot bootstrap transfer finished. A = chunks
	// received (including any re-received after a full resync), B =
	// mid-transfer resumes that continued from the last verified chunk.
	KindBootstrap
)

// String names the kind for rendering and for the hop-lag histogram label.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindObserve:
		return "observe"
	case KindBatchDrain:
		return "batch-drain"
	case KindJournalAppend:
		return "journal-append"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindApply:
		return "apply"
	case KindEpochPublish:
		return "epoch-publish"
	case KindJournalReset:
		return "journal-reset"
	case KindJournalTorn:
		return "journal-torn"
	case KindPanic:
		return "panic"
	case KindBreakerOpen:
		return "breaker-open"
	case KindCensor:
		return "censor"
	case KindRetryExhausted:
		return "retry-exhausted"
	case KindReadDeadline:
		return "read-deadline"
	case KindFailover:
		return "failover"
	case KindTrigger:
		return "trigger"
	case KindMark:
		return "mark"
	case KindResize:
		return "resize"
	case KindConnUp:
		return "conn-up"
	case KindConnDown:
		return "conn-down"
	case KindBootstrap:
		return "bootstrap"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one structured spine event. LC is the recorder-wide logical
// clock: it totally orders events across subsystems without consulting wall
// time, so a trace is reconstructible even when the clock is frozen (tests)
// or coarse. TS is the clock's reading at emission, used only for lag
// reporting, never for ordering. Cause is the causal ID minted at
// Publisher.Observe (0 = the event is not part of an observation's journey,
// e.g. a record recovered from the journal, whose frame does not carry the
// ID). Lag is the nanoseconds since the causal ID was minted, when known.
type Event struct {
	LC    uint64
	TS    int64
	Cause uint64
	Sub   Subsystem
	Kind  Kind
	Actor uint16 // replica index + 1; 0 = primary/unknown
	A, B  uint64
	Lag   int64 // ns since the cause was minted; 0 = unknown
}

// slotWords is the per-slot footprint in the ring's atomic word array:
//
//	[0] LC (commit check, written first after invalidation)
//	[1] TS
//	[2] Cause
//	[3] packed Sub | Kind | Actor
//	[4] A
//	[5] B
//	[6] Lag
//	[7] LC again (commit marker, written last)
//
// A reader accepts a slot only when words 0 and 7 agree and are nonzero;
// a writer overwriting a wrapped slot first zeroes word 7, so a concurrent
// reader can never stitch half an old event onto half a new one. Every
// access is atomic, so the scheme is race-detector-clean by construction.
const slotWords = 8

func packSKA(sub Subsystem, kind Kind, actor uint16) uint64 {
	return uint64(sub) | uint64(kind)<<8 | uint64(actor)<<16
}

func unpackSKA(w uint64) (Subsystem, Kind, uint16) {
	return Subsystem(w), Kind(w >> 8), uint16(w >> 16)
}

// ring is one subsystem's fixed-size event buffer.
type ring struct {
	words []atomic.Uint64 // cap * slotWords
	mask  uint64          // cap - 1 (cap is a power of two)
	head  atomic.Uint64   // next slot ordinal; slot = ordinal & mask
}

func newRing(capacity int) *ring {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &ring{words: make([]atomic.Uint64, c*slotWords), mask: uint64(c - 1)}
}

// write claims the next slot and commits e into it, reporting whether an
// older event was overwritten.
func (r *ring) write(e Event) (overwrote bool) {
	ord := r.head.Add(1) - 1
	base := int(ord&r.mask) * slotWords
	overwrote = ord > r.mask // every wrapped ordinal evicts one event
	r.words[base+7].Store(0) // invalidate before touching the body
	r.words[base+0].Store(e.LC)
	r.words[base+1].Store(uint64(e.TS))
	r.words[base+2].Store(e.Cause)
	r.words[base+3].Store(packSKA(e.Sub, e.Kind, e.Actor))
	r.words[base+4].Store(e.A)
	r.words[base+5].Store(e.B)
	r.words[base+6].Store(uint64(e.Lag))
	r.words[base+7].Store(e.LC) // commit
	return overwrote
}

// snapshot collects every committed event currently in the ring. Events a
// writer is mid-overwrite on are skipped (their commit words disagree); the
// result is unsorted — callers order by LC.
func (r *ring) snapshot() []Event {
	n := int(r.mask + 1)
	out := make([]Event, 0, n)
	for slot := 0; slot < n; slot++ {
		base := slot * slotWords
		commit := r.words[base+7].Load()
		if commit == 0 {
			continue
		}
		var e Event
		e.LC = r.words[base+0].Load()
		e.TS = int64(r.words[base+1].Load())
		e.Cause = r.words[base+2].Load()
		e.Sub, e.Kind, e.Actor = unpackSKA(r.words[base+3].Load())
		e.A = r.words[base+4].Load()
		e.B = r.words[base+5].Load()
		e.Lag = int64(r.words[base+6].Load())
		if r.words[base+7].Load() != commit || r.words[base+0].Load() != commit {
			continue // overwritten while we read; the new event will be seen by the next dump
		}
		out = append(out, e)
	}
	return out
}

// DefaultRingSize is the per-subsystem event capacity when Config leaves it
// zero: enough to hold a full publisher batch cycle on every hop.
const DefaultRingSize = 1024

// DefaultMaxDumps bounds automatic flight-recorder dumps per Recorder: a
// fault storm (every censored row triggering) must not fill the disk.
const DefaultMaxDumps = 8

// Config assembles a Recorder. The zero value is usable: wall clock, seed 0,
// default ring size, automatic dumps disabled.
type Config struct {
	// Clock supplies event timestamps. Nil means telemetry.Wall; tests
	// inject a telemetry.FakeClock for deterministic timelines.
	Clock telemetry.Clock
	// Seed drives the causal-ID stream: same seed, same minted IDs.
	Seed uint64
	// RingSize is the per-subsystem event capacity, rounded up to a power
	// of two. Default DefaultRingSize.
	RingSize int
	// DumpDir, when non-empty, makes Trigger write black-box dump files
	// (blackbox-NNN-<reason>.mlqbb) there. Empty disables automatic dumps;
	// Trigger still emits its event and DumpTo still works.
	DumpDir string
	// MaxDumps bounds automatic dumps (default DefaultMaxDumps). Triggers
	// past the bound still emit events; they just stop writing files.
	MaxDumps int
}

// Recorder is the event spine: one ring per subsystem plus the causal-ID
// mint and the flight-recorder trigger. A nil *Recorder is a valid no-op —
// every method checks the receiver first, so instrumented code pays one
// pointer test when recording is off.
type Recorder struct {
	clock telemetry.Clock
	seed  uint64
	ids   atomic.Uint64 // causal-ID mint counter
	lc    atomic.Uint64 // logical clock, total across subsystems
	rings [NumSubsystems]*ring

	dumpMu   sync.Mutex // leaf lock: guards dump file IO and the dump counter
	dumpDir  string
	dumpMax  int
	dumpSeq  uint64
	dumpErrs atomic.Int64

	tel atomic.Pointer[recorderTelemetry]
}

// New builds a Recorder from cfg.
func New(cfg Config) *Recorder {
	if cfg.Clock == nil {
		cfg.Clock = telemetry.Wall
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.MaxDumps <= 0 {
		cfg.MaxDumps = DefaultMaxDumps
	}
	r := &Recorder{
		clock:   cfg.Clock,
		seed:    cfg.Seed,
		dumpDir: cfg.DumpDir,
		dumpMax: cfg.MaxDumps,
	}
	for i := range r.rings {
		r.rings[i] = newRing(cfg.RingSize)
	}
	return r
}

// splitmix64 is the causal-ID hash: a well-mixed bijection on uint64, so
// sequential mint counters become IDs that are unique, seeded, and wildly
// separated — easy to grep a log for without colliding with sequence
// numbers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MintID issues the next causal ID from the seeded stream. IDs are never 0
// (0 means "no cause"). Nil-safe: a nil recorder mints 0, and every carrier
// treats 0 as "untraced".
func (r *Recorder) MintID() uint64 {
	if r == nil {
		return 0
	}
	id := splitmix64(r.seed ^ r.ids.Add(1))
	if id == 0 {
		id = 1 // splitmix64 is a bijection; exactly one counter value maps to 0
	}
	return id
}

// Now returns the recorder clock's reading in unix nanoseconds (0 on nil):
// the mint timestamp callers thread alongside the causal ID so later hops
// can report lag-since-mint.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock.Now().UnixNano()
}

// Emit records one event with no actor and no lag.
func (r *Recorder) Emit(sub Subsystem, kind Kind, cause, a, b uint64) {
	if r == nil {
		return
	}
	r.emit(sub, kind, cause, 0, a, b, 0)
}

// EmitActor records one event attributed to an actor (replica index + 1; 0
// is the primary) with both payload words and no lag — the shape of the
// epoch-publish watermark events traces join against.
func (r *Recorder) EmitActor(sub Subsystem, kind Kind, cause uint64, actor int, a, b uint64) {
	if r == nil {
		return
	}
	if actor < 0 || actor > 0xffff {
		actor = 0
	}
	r.emit(sub, kind, cause, uint16(actor), a, b, 0)
}

// EmitHop records one observation-journey hop: actor is the replica index
// (plus one; 0 for the primary), and mintNS — the Now() reading taken when
// the cause was minted — turns into the event's lag and feeds the per-hop
// lag histogram. mintNS <= 0 means the mint time is unknown (e.g. a record
// recovered from the journal) and no lag is recorded.
func (r *Recorder) EmitHop(sub Subsystem, kind Kind, cause uint64, mintNS int64, actor int, a uint64) {
	if r == nil {
		return
	}
	var lag int64
	if mintNS > 0 {
		if now := r.clock.Now().UnixNano(); now > mintNS {
			lag = now - mintNS
		}
	}
	if actor < 0 || actor > 0xffff {
		actor = 0
	}
	r.emit(sub, kind, cause, uint16(actor), a, 0, lag)
}

func (r *Recorder) emit(sub Subsystem, kind Kind, cause uint64, actor uint16, a, b uint64, lag int64) {
	if sub >= NumSubsystems {
		sub = SubHarness
	}
	e := Event{
		LC:    r.lc.Add(1),
		TS:    r.clock.Now().UnixNano(),
		Cause: cause,
		Sub:   sub,
		Kind:  kind,
		Actor: actor,
		A:     a,
		B:     b,
		Lag:   lag,
	}
	overwrote := r.rings[sub].write(e)
	if tel := r.tel.Load(); tel != nil {
		tel.emitted.Inc()
		if overwrote {
			tel.dropped.Inc()
		}
		if lag > 0 {
			if h := tel.hopLag[kind]; h != nil {
				h.Observe(float64(lag) / 1e9)
			}
		}
	}
}

// Snapshot collects every committed event across all subsystems, sorted by
// the logical clock. It is what DumpTo serializes and what in-process
// consumers (tests, the harness) trace against.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, rg := range r.rings {
		out = append(out, rg.snapshot()...)
	}
	// LC is total and unique by construction, so the order is deterministic.
	sort.Slice(out, func(i, j int) bool { return out[i].LC < out[j].LC })
	return out
}

// DumpErrors returns how many automatic dumps failed to write (counted,
// never fatal: the flight recorder must not take down the flight).
func (r *Recorder) DumpErrors() int64 {
	if r == nil {
		return 0
	}
	return r.dumpErrs.Load()
}

// recorderTelemetry mirrors the spine's health into a telemetry registry.
type recorderTelemetry struct {
	emitted   *telemetry.Counter
	dropped   *telemetry.Counter
	dumps     *telemetry.Counter
	dumpErrs  *telemetry.Counter
	triggered *telemetry.Counter
	hopLag    map[Kind]*telemetry.Histogram
}

// hopKinds are the observation-journey hops that get lag histograms: the
// replication-lag distributions a fleet dashboard alerts on.
var hopKinds = []Kind{KindObserve, KindBatchDrain, KindJournalAppend, KindSend, KindRecv, KindApply}

// Instrument registers the spine's metrics under mlq_events_*: emission and
// overwrite counters, flight-recorder accounting, and one
// mlq_events_hop_lag_seconds histogram per observation-journey hop — the
// replication-lag histograms (hop="send"/"recv"/"apply") among them. Safe to
// call on a live recorder; nil reg uninstalls.
func (r *Recorder) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	if r == nil {
		return
	}
	if reg == nil {
		r.tel.Store(nil)
		return
	}
	tel := &recorderTelemetry{
		emitted:   reg.Counter("mlq_events_emitted_total", "events recorded on the causal spine", labels...),
		dropped:   reg.Counter("mlq_events_dropped_total", "ring-buffer events overwritten before any dump saw them", labels...),
		dumps:     reg.Counter("mlq_events_dumps_total", "black-box flight-recorder dumps written", labels...),
		dumpErrs:  reg.Counter("mlq_events_dump_errors_total", "flight-recorder dumps that failed to write", labels...),
		triggered: reg.Counter("mlq_events_triggers_total", "flight-recorder trigger firings (dumped or not)", labels...),
		hopLag:    make(map[Kind]*telemetry.Histogram, len(hopKinds)),
	}
	for _, k := range hopKinds {
		kl := append(append([]telemetry.Label(nil), labels...), telemetry.L("hop", k.String()))
		tel.hopLag[k] = reg.Histogram("mlq_events_hop_lag_seconds", "lag from causal-ID mint to this hop", kl...)
	}
	r.tel.Store(tel)
}
