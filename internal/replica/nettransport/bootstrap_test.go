package nettransport

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"mlq/internal/faults"
	"mlq/internal/frame"
)

// memSource is a SnapshotSource serving fixed bytes.
type memSource struct {
	ckpt, jnl []byte
}

func (s *memSource) Snapshot() ([]byte, []byte, error) { return s.ckpt, s.jnl, nil }

func patternBytes(n int, stride byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*stride + stride
	}
	return b
}

func newBootstrapPair(t *testing.T, inj *faults.Injector, chunkBytes int) (*NetTransport, *memSource) {
	t.Helper()
	tr := New(Config{
		Seed:              3,
		Injector:          inj,
		ChunkBytes:        chunkBytes,
		BackoffBase:       time.Millisecond,
		BackoffCap:        10 * time.Millisecond,
		BootstrapAttempts: 8,
	})
	t.Cleanup(tr.Close)
	tr.Register("primary", 64)
	src := &memSource{ckpt: patternBytes(5000, 3), jnl: patternBytes(3000, 7)}
	tr.SetSnapshotSource("primary", src)
	return tr, src
}

func TestBootstrapRoundTrip(t *testing.T) {
	tr, src := newBootstrapPair(t, nil, 512)
	res, err := tr.Bootstrap("primary")
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if !bytes.Equal(res.Ckpt, src.ckpt) || !bytes.Equal(res.Journal, src.jnl) {
		t.Fatal("bootstrap bytes drifted from the source snapshot")
	}
	wantChunks := (len(src.ckpt) + len(src.jnl) + 511) / 512
	if res.Chunks != wantChunks || res.Resumes != 0 || res.Restarts != 0 {
		t.Fatalf("clean transfer accounting: chunks %d (want %d) resumes %d restarts %d",
			res.Chunks, wantChunks, res.Resumes, res.Restarts)
	}
}

// TestBootstrapResumesAfterMidTransferKill schedules a connection reset on
// the serving side mid-stream: the client must resume from the last good
// chunk under the same token — no restart, no byte drift, and the chunk
// total unchanged (nothing re-shipped).
func TestBootstrapResumesAfterMidTransferKill(t *testing.T) {
	inj := faults.New(5)
	// Server-conn op order is deterministic for a bootstrap exchange:
	// 3 reads (preamble, request header, request payload), then the meta
	// write, then one write per chunk. Hit 10 kills the stream during
	// chunk 6 of 16.
	inj.Enable(faults.NetReset, faults.SiteConfig{Schedule: []int64{10}})
	tr, src := newBootstrapPair(t, inj, 512)
	res, err := tr.Bootstrap("primary")
	if err != nil {
		t.Fatalf("Bootstrap through a mid-transfer kill: %v", err)
	}
	if !bytes.Equal(res.Ckpt, src.ckpt) || !bytes.Equal(res.Journal, src.jnl) {
		t.Fatal("resumed bootstrap bytes drifted from the source snapshot")
	}
	if res.Resumes < 1 {
		t.Fatalf("Resumes = %d; the transfer should have resumed, not restarted", res.Resumes)
	}
	if res.Restarts != 0 {
		t.Fatalf("Restarts = %d; a resumable kill must not force a full resync", res.Restarts)
	}
	wantChunks := (len(src.ckpt) + len(src.jnl) + 511) / 512
	if res.Chunks != wantChunks {
		t.Fatalf("chunks received %d, want exactly %d (resume must not re-ship verified chunks)",
			res.Chunks, wantChunks)
	}
	if got := tr.NetStats(); got.BootstrapResumes < 1 || got.BootstrapChunks != int64(wantChunks) {
		t.Fatalf("transport counters: %+v", got)
	}
}

// TestBootstrapStaleTokenGetsCompacted invalidates the cached snapshot
// under an in-flight token: the server must answer bootErrCompacted (forcing
// a full resync) rather than stream chunks of a blob that no longer exists.
func TestBootstrapStaleTokenGetsCompacted(t *testing.T) {
	tr, _ := newBootstrapPair(t, nil, 512)
	first, err := tr.Bootstrap("primary")
	if err != nil {
		t.Fatalf("first Bootstrap: %v", err)
	}
	if first.Restarts != 0 {
		t.Fatalf("first transfer restarted %d times", first.Restarts)
	}
	tr.InvalidateBootstrapCache("primary")

	// Resume by hand with the (now stale) token, like a client whose
	// transfer outlived the snapshot.
	addr, err := tr.addrOf("primary")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writePreamble(conn, purposeBootstrap); err != nil {
		t.Fatal(err)
	}
	req := append([]byte{fmBootstrapReq}, make([]byte, 12)...)
	req[1] = 1 // token 1, the generation the first transfer used
	req[9] = 3 // fromChunk 3
	if _, err := conn.Write(frame.Append(nil, req)); err != nil {
		t.Fatal(err)
	}
	fr := wireReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	p, err := fr.Next()
	if err != nil {
		t.Fatalf("reading compacted reply: %v", err)
	}
	if p[0] != fmBootstrapErr || len(p) < 2 || p[1] != bootErrCompacted {
		t.Fatalf("stale-token resume got frame kind %d code %v, want bootErrCompacted", p[0], p[1:2])
	}

	// The public client turns that into a clean full resync.
	second, err := tr.Bootstrap("primary")
	if err != nil {
		t.Fatalf("post-invalidation Bootstrap: %v", err)
	}
	if !bytes.Equal(second.Ckpt, first.Ckpt) || !bytes.Equal(second.Journal, first.Journal) {
		t.Fatal("full resync bytes drifted")
	}
}

// TestBootstrapClientRestartsOnCompacted drives the client-side restart
// path directly: a resume whose token the server has superseded must come
// back as errRestartBootstrap so Bootstrap discards partials and resyncs.
func TestBootstrapClientRestartsOnCompacted(t *testing.T) {
	tr, _ := newBootstrapPair(t, nil, 512)
	if _, err := tr.Bootstrap("primary"); err != nil { // caches blob at token 1
		t.Fatal(err)
	}
	token := uint64(999)
	var meta *bootMeta
	chunks := [][]byte{patternBytes(512, 1)}
	res := &BootstrapResult{}
	if err := tr.bootstrapOnce("primary", &token, &meta, &chunks, res); err != errRestartBootstrap {
		t.Fatalf("stale-token resume: got %v, want errRestartBootstrap", err)
	}
}

func TestBootstrapWithoutSourceRefused(t *testing.T) {
	tr := New(Config{Seed: 3, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond, BootstrapAttempts: 2})
	defer tr.Close()
	tr.Register("primary", 64)
	_, err := tr.Bootstrap("primary")
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("bootstrap without a source: %v", err)
	}
}
