package journal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func tmpJournal(t *testing.T, opts ...Option) *Journal {
	t.Helper()
	j, err := Create(filepath.Join(t.TempDir(), "obs.journal"), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestAppendReplayRoundTrip(t *testing.T) {
	j := tmpJournal(t)
	want := []Record{
		{Point: []float64{0.1, 0.2}, Value: 3},
		{Point: []float64{0.5}, Value: 0},
		{Point: []float64{0.9, 0.8, 0.7}, Value: 1e6},
	}
	for _, r := range want {
		if err := j.Append(r.Point, r.Value); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != len(want) {
		t.Fatalf("Len %d, want %d", j.Len(), len(want))
	}
	got, cut, err := ReplayFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if cut != 0 {
		t.Fatalf("clean journal reported %d truncated bytes", cut)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Value != want[i].Value || len(got[i].Point) != len(want[i].Point) {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
		for d := range want[i].Point {
			if got[i].Point[d] != want[i].Point[d] {
				t.Fatalf("record %d dim %d: got %g, want %g", i, d, got[i].Point[d], want[i].Point[d])
			}
		}
	}
}

// TestAppendAllocs pins the append path: on a journal that is not full,
// Append encodes each record into the journal's reused buffer and
// allocates nothing.
func TestAppendAllocs(t *testing.T) {
	j := tmpJournal(t)
	p := []float64{0.25, 0.75}
	allocs := testing.AllocsPerRun(200, func() {
		if err := j.Append(p, 1.5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v times per call, want 0", allocs)
	}
}

func TestAppendValidation(t *testing.T) {
	j := tmpJournal(t)
	if err := j.Append(nil, 1); err == nil {
		t.Fatal("empty point accepted")
	}
	if err := j.Append(make([]float64, MaxDims+1), 1); err == nil {
		t.Fatal("oversized point accepted")
	}
	if err := j.Append([]float64{0.5}, math.NaN()); err == nil {
		t.Fatal("NaN value accepted")
	}
	if err := j.Append([]float64{0.5}, math.Inf(1)); err == nil {
		t.Fatal("Inf value accepted")
	}
	if j.Len() != 0 {
		t.Fatalf("rejected appends counted: Len %d", j.Len())
	}
}

func TestBoundedAppend(t *testing.T) {
	j := tmpJournal(t, WithMaxRecords(3))
	for i := 0; i < 3; i++ {
		if err := j.Append([]float64{float64(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append([]float64{9}, 1); !errors.Is(err, ErrFull) {
		t.Fatalf("over-limit append: err %v, want ErrFull", err)
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("Len %d after Reset, want 0", j.Len())
	}
	if err := j.Append([]float64{1}, 2); err != nil {
		t.Fatalf("append after Reset: %v", err)
	}
	got, _, err := ReplayFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Value != 2 {
		t.Fatalf("replay after Reset: %+v, want the single post-Reset record", got)
	}
}

func TestReplayTruncatedTail(t *testing.T) {
	j := tmpJournal(t)
	for i := 0; i < 5; i++ {
		if err := j.Append([]float64{float64(i) / 10, 0.5}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	// Cut the stream at every possible byte length: the replay must recover
	// exactly the records whose frames survived intact, never panic, and
	// never invent a record.
	frame := recordSize(2)
	for cut := len(data); cut >= headerSize; cut-- {
		got, _, err := Replay(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantRecs := (cut - headerSize) / frame
		if len(got) != wantRecs {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), wantRecs)
		}
		for i, r := range got {
			if r.Value != float64(i) {
				t.Fatalf("cut %d: record %d has value %g, want %d", cut, i, r.Value, i)
			}
		}
	}
}

func TestReplayBitFlip(t *testing.T) {
	j := tmpJournal(t)
	for i := 0; i < 4; i++ {
		if err := j.Append([]float64{0.5}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the third record's payload: replay keeps the two
	// records before it and cuts the rest.
	off := headerSize + 2*recordSize(1) + 10
	data[off] ^= 1 << 5
	got, cut, err := Replay(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d records past a bit flip, want 2", len(got))
	}
	if cut == 0 {
		t.Fatal("bit flip reported no truncation")
	}
}

func TestReplayRejectsForeignStreams(t *testing.T) {
	if _, _, err := Replay(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, _, err := Replay(bytes.NewReader([]byte("not a journal at all"))); err == nil {
		t.Fatal("garbage header accepted")
	}
}

func TestReplayFileMissingIsEmpty(t *testing.T) {
	got, cut, err := ReplayFile(filepath.Join(t.TempDir(), "nope.journal"))
	if err != nil || len(got) != 0 || cut != 0 {
		t.Fatalf("missing file: got %d records, cut %d, err %v; want empty, nil", len(got), cut, err)
	}
}
