package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mlq/internal/geom"
	"mlq/internal/journal"
)

// TestPublisherJournalReplayAfterKill simulates a crash: observations flow
// through a journaled publisher, the process "dies" without Close, the tail
// of the journal is torn, and a fresh model replays what survived. The
// recovered model must be byte-identical to a clean model fed the same
// prefix, and the loss must stay within the documented MaxBatch bound.
func TestPublisherJournalReplayAfterKill(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "observations.mlqj")
	jn, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const n, maxBatch = 137, 16
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{
		MaxBatch: maxBatch, Journal: jn,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	points := make([]geom.Point, n)
	values := make([]float64, n)
	for i := 0; i < n; i++ {
		points[i] = geom.Point{rng.Float64(), rng.Float64()}
		values[i] = rng.Float64() * 50
		if err := pub.Observe(points[i], values[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	// Kill: no Close, no journal Close. Tear the last frame as an unsynced
	// page cache would.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	if err := f.Truncate(info.Size() - 5); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered := publisherModel(t)
	applied, truncated, err := ReplayJournal(recovered, path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated == 0 {
		t.Fatal("torn tail not reported")
	}
	if lost := n - applied; lost < 1 || lost > maxBatch {
		t.Fatalf("lost %d observations, want 1..%d (at most one batch)", lost, maxBatch)
	}

	clean := publisherModel(t)
	for i := 0; i < applied; i++ {
		if err := clean.Observe(points[i], values[i]); err != nil {
			t.Fatal(err)
		}
	}
	var recBytes, cleanBytes bytesBuffer
	if _, err := recovered.WriteTo(&recBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.WriteTo(&cleanBytes); err != nil {
		t.Fatal(err)
	}
	if !recBytes.Equal(&cleanBytes) {
		t.Fatal("replayed model differs from a clean run over the same prefix")
	}
}

// bytesBuffer is a minimal io.Writer collecting bytes for comparison.
type bytesBuffer struct{ b []byte }

func (w *bytesBuffer) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *bytesBuffer) Equal(o *bytesBuffer) bool   { return string(w.b) == string(o.b) }

func TestPublisherCheckpointTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "observations.mlqj")
	jn, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{Journal: jn})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 20; i++ {
		if err := pub.Observe(geom.Point{0.25, 0.75}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if jn.Len() != 0 {
		t.Fatalf("journal holds %d records after Checkpoint, want 0", jn.Len())
	}
	if pub.Staleness() != 0 {
		t.Fatalf("staleness %d after Checkpoint, want 0", pub.Staleness())
	}
	// Post-checkpoint observations land in the (now empty) journal, so a
	// replay only re-applies what the checkpointed snapshot lacks.
	for i := 0; i < 5; i++ {
		if err := pub.Observe(geom.Point{0.25, 0.75}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	if jn.Len() != 5 {
		t.Fatalf("journal holds %d records, want the 5 post-checkpoint ones", jn.Len())
	}
	st := pub.Stats()
	if st.Journaled != 25 || st.JournalErrors != 0 {
		t.Fatalf("stats %+v, want 25 journaled / 0 errors", st)
	}
}

// TestPublisherJournalFullDegradesGracefully proves a journal at capacity
// costs crash-safety, never liveness: Observe keeps succeeding and the
// overflow is counted.
func TestPublisherJournalFullDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	jn, err := journal.Create(filepath.Join(dir, "bounded.mlqj"), journal.WithMaxRecords(3))
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{Journal: jn})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 10; i++ {
		if err := pub.Observe(geom.Point{0.5, 0.5}, float64(i)); err != nil {
			t.Fatalf("Observe %d failed after journal filled: %v", i, err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	st := pub.Stats()
	if st.Journaled != 3 || st.JournalErrors != 7 {
		t.Fatalf("stats %+v, want 3 journaled / 7 journal errors", st)
	}
	if st.Applied != 10 {
		t.Fatalf("applied %d, want all 10 despite the full journal", st.Applied)
	}
}
