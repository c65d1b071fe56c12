package quadtree

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mlq/internal/geom"
	"mlq/internal/geom/geomtest"
)

// The golden artifacts under testdata/ come in two generations.
//
// prearena_*.bin were serialized by the pre-arena (pointer-linked)
// implementation via a one-shot generator (cmd/gengolden, removed after use)
// and are committed permanently. TestGoldenFramesStillDecode proves that
// frames written then still decode and re-encode byte for byte; if it
// fails, the slot-order-equals-creation-order invariant (see arena.go) has
// been broken — do not regenerate the artifacts to make it pass.
//
// slotorder_*.bin are the frames the same insert sequences emit since
// compression ranks victims by (key, arena slot). The pre-arena code broke
// SSEG ties by container/heap's layout over a depth-first enumeration, so
// both workloads, which compress dozens of times, evict different but
// equally cheap leaves and emit different bytes from the pre-arena frames.
// TestGoldenSerializationCompat pins the emitted bytes against these
// frames, so any change to the victim order or to the encoding shows.

// goldenLCG is the deterministic generator the golden generator used; duplicated
// here (not imported) so the test workload can never drift.
type goldenLCG uint64

func (l *goldenLCG) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(uint64(*l)>>11) / float64(uint64(1)<<53)
}

// goldenEagerTree mirrors the golden generator's buildEager exactly: a 3-d eager
// tree under heavy compression pressure (dozens of passes over 2000 inserts).
func goldenEagerTree(t *testing.T) *Tree {
	t.Helper()
	tr := mustTree(t, Config{
		Region:      geomtest.MustRect(geom.Point{0, 0, 0}, geom.Point{8, 8, 8}),
		Strategy:    Eager,
		MaxDepth:    4,
		MemoryLimit: 64 * DefaultNodeBytes,
	})
	r := goldenLCG(0x9E3779B97F4A7C15)
	for i := 0; i < 2000; i++ {
		p := geom.Point{r.next() * 8, r.next() * 8, r.next() * 8}
		if err := tr.Insert(p, r.next()*100); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// goldenLazyTree mirrors the golden generator's buildLazy exactly: a 2-d lazy tree
// under the count compression policy.
func goldenLazyTree(t *testing.T) *Tree {
	t.Helper()
	tr := mustTree(t, Config{
		Region:      geomtest.MustRect(geom.Point{0, 0}, geom.Point{100, 100}),
		Strategy:    Lazy,
		MaxDepth:    6,
		Beta:        10,
		Policy:      CompressCount,
		MemoryLimit: 48 * DefaultNodeBytes,
	})
	r := goldenLCG(0x0123456789ABCDEF)
	for i := 0; i < 1500; i++ {
		p := geom.Point{r.next() * 100, r.next() * 100}
		if err := tr.Insert(p, r.next()*50); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func goldenBytes(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenSerializationCompat(t *testing.T) {
	cases := []struct {
		name  string
		file  string
		build func(*testing.T) *Tree
	}{
		{"eager", "slotorder_eager.bin", goldenEagerTree},
		{"lazy", "slotorder_lazy.bin", goldenLazyTree},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := goldenBytes(t, c.file)
			tr := c.build(t)
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("tree serialized to %d bytes differing from the %d-byte golden frame",
					buf.Len(), len(want))
			}
			// A snapshot of the same tree must emit the identical frame too.
			var sbuf bytes.Buffer
			if _, err := tr.Snapshot().WriteTo(&sbuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sbuf.Bytes(), want) {
				t.Fatal("snapshot serialization differs from the golden frame")
			}
		})
	}
}

func TestGoldenFramesStillDecode(t *testing.T) {
	for _, file := range []string{"prearena_eager.bin", "prearena_lazy.bin"} {
		t.Run(file, func(t *testing.T) {
			raw := goldenBytes(t, file)
			tr, err := Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("pre-arena frame no longer decodes: %v", err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			// Round-trip: decoding reconstructs creation order, so
			// re-encoding must reproduce the original bytes.
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), raw) {
				t.Fatal("decode/encode round-trip altered the frame")
			}
		})
	}
}
