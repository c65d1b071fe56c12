package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mlq/internal/events"
	"mlq/internal/geom"
	"mlq/internal/journal"
	"mlq/internal/quadtree"
	"mlq/internal/telemetry"
)

// ErrPublisherClosed reports an Observe or Flush against a Publisher whose
// Close has begun. The observation was not accepted.
var ErrPublisherClosed = errors.New("core: publisher is closed")

// Publisher turns a single-threaded MLQ tree into a concurrency-safe Model
// using epoch/snapshot publishing instead of a lock:
//
//   - Predict loads the current immutable quadtree.Snapshot through one
//     atomic pointer read and descends it with zero locks — any number of
//     optimizer threads predict in parallel and never contend with learning;
//   - Observe enqueues the observation on a bounded channel (waiting for
//     space when it is full) and returns; a single writer goroutine drains
//     the queue in batches, applies each batch to the live tree, and
//     publishes a fresh snapshot (a new epoch) when the batch is done.
//
// The price is bounded staleness: a prediction may miss observations that
// are still queued or inside the writer's current batch — at most
// QueueCapacity + MaxBatch of them, and Staleness() reports the live value.
// This batched-Observe design deviates from the paper, whose feedback loop
// is synchronous and single-threaded (§5's experiments interleave exactly
// one Predict with one Observe); the serial path remains available by using
// MLQ directly, and the two converge to the identical tree because the writer applies observations
// in arrival order — batching changes latency, never ordering. See DESIGN.md
// §9.
type Publisher struct {
	cur atomic.Pointer[epochState]

	// queue carries observations to the writer goroutine; stop tells the
	// writer to drain and exit.
	queue chan observation
	stop  chan struct{}

	submitted atomic.Int64 // observations accepted by Observe
	applied   atomic.Int64 // observations folded into a published snapshot

	region   geom.Rect // frozen copy for synchronous Observe validation
	name     string
	maxBatch int

	// jmu serializes the accepted-observation pipeline across observers:
	// the enqueue, sequence assignment, the journal append and the
	// subscriber fan-out happen as one critical section, so the writer's
	// apply order, the journal and every replication subscriber see the
	// identical order however many goroutines observe. Close sets closed,
	// then takes jmu once before it stops the writer, so an Observe either
	// enqueues ahead of the writer's final drain or reports the publisher
	// closed.
	jmu         sync.Mutex
	closed      atomic.Bool
	seq         uint64        // accepted-observation sequence, 1-based
	subs        []*subscriber // accepted-observation fan-out hooks
	journal     *journal.Journal
	journaled   atomic.Int64 // records appended to the journal
	journalErrs atomic.Int64 // appends that failed (journal full or IO error)

	events *events.Recorder // causal event spine; nil = recording off

	onPublish atomic.Pointer[func(epoch uint64, applied int64)]

	writerDone chan struct{}
	flushReq   chan flushRequest
	resizeReq  chan resizeRequest
	resizes    atomic.Int64 // budget changes applied by the writer
	closeOnce  sync.Once
	closeErr   error

	errMu       sync.Mutex
	deferredErr error // first unreported writer-side insert failure

	// tel is swapped atomically: Instrument may be called after the writer
	// goroutine is already running (the harness instruments a live
	// publisher), so the hot paths load it instead of reading a plain field.
	tel atomic.Pointer[publisherTelemetry] // nil unless Instrument was called
}

var _ Model = (*Publisher)(nil)

// epochState is one published generation: the snapshot plus its epoch number.
type epochState struct {
	snap  *quadtree.Snapshot
	epoch uint64
}

type observation struct {
	p      geom.Point
	actual float64
	// cause is the causal ID minted for this observation's journey on the
	// event spine (0 when no recorder is installed); mint is the recorder
	// clock's reading at the mint, so every later hop can report lag.
	cause uint64
	mint  int64
}

type flushRequest struct {
	target int64 // apply at least this many observations before replying
	done   chan error
}

type resizeRequest struct {
	limit int // new live memory budget for the tree, in bytes
	done  chan error
}

// DefaultMaxBatch is PublisherConfig.MaxBatch's default.
const DefaultMaxBatch = 64

// PublisherConfig tunes the writer side of a Publisher. The zero value is
// usable.
type PublisherConfig struct {
	// QueueCapacity bounds the ingest queue. Observe blocks once the queue
	// is full, which is what bounds staleness. Default 1024.
	QueueCapacity int
	// MaxBatch bounds how many queued observations the writer folds into
	// the tree before it must publish a fresh snapshot. Default 64.
	MaxBatch int
	// Journal, when non-nil, receives every accepted observation before it
	// is applied, making the feedback loop crash-safe: after a kill,
	// ReplayJournal feeds the surviving prefix into a fresh model. Append
	// failures degrade gracefully (counted, never fatal). The caller owns
	// the journal's lifecycle; Close does not close it.
	Journal *journal.Journal
	// Events, when non-nil, is the causal event spine: Observe mints a
	// causal ID per accepted observation and the publisher emits a hop
	// event at acceptance, journal append, batch drain, and epoch publish.
	// Nil keeps every emission site at a single pointer check.
	Events *events.Recorder
}

func (c PublisherConfig) withDefaults() PublisherConfig {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	return c
}

// NewPublisher wraps the MLQ model and starts the writer goroutine. The
// Publisher takes ownership of the model's tree: the caller must not touch
// m (or its tree) again except through the Publisher. Close releases the
// writer goroutine and hands the tree back.
func NewPublisher(m *MLQ, cfg PublisherConfig) (*Publisher, error) {
	if m == nil {
		return nil, fmt.Errorf("core: NewPublisher requires a model")
	}
	cfg = cfg.withDefaults()
	pub := &Publisher{
		queue:      make(chan observation, cfg.QueueCapacity),
		stop:       make(chan struct{}),
		region:     m.tree.Config().Region.Clone(),
		name:       m.Name(),
		maxBatch:   cfg.MaxBatch,
		journal:    cfg.Journal,
		events:     cfg.Events,
		writerDone: make(chan struct{}),
		flushReq:   make(chan flushRequest),
		resizeReq:  make(chan resizeRequest),
	}
	pub.cur.Store(&epochState{snap: m.tree.Snapshot(), epoch: 0})
	go pub.writer(m)
	return pub, nil
}

// Predict implements Model against the current snapshot: one atomic load,
// no locks, no contention with the writer.
func (pub *Publisher) Predict(p geom.Point) (float64, bool) {
	return pub.cur.Load().snap.Predict(p)
}

// PredictBeta predicts against the current snapshot with an explicit β.
func (pub *Publisher) PredictBeta(p geom.Point, beta int) (float64, bool) {
	return pub.cur.Load().snap.PredictBeta(p, beta)
}

// Observe implements Model: it validates the observation synchronously
// (dimension and finiteness errors are the caller's, not the writer's) and
// enqueues it for the writer goroutine, waiting for queue space when the
// queue is full. Once Close has begun Observe returns ErrPublisherClosed
// without enqueuing; a nil return means the observation is in the queue
// ahead of Close's final drain, so it reaches the model.
func (pub *Publisher) Observe(p geom.Point, actual float64) error {
	if len(p) != pub.region.Dims() {
		return fmt.Errorf("core: observation has %d dims, model has %d", len(p), pub.region.Dims())
	}
	if math.IsNaN(actual) || math.IsInf(actual, 0) {
		return fmt.Errorf("core: cost value must be finite, got %g", actual)
	}
	// Copy the point: the caller may reuse its backing array after Observe
	// returns, but the writer reads it asynchronously. The causal ID minted
	// here is the thread `mlqtool trace` follows through every later hop;
	// with no recorder both fields stay zero at the cost of one nil check.
	o := observation{
		p:      append(geom.Point(nil), p...),
		actual: actual,
		cause:  pub.events.MintID(),
		mint:   pub.events.Now(),
	}
	return pub.accept(o)
}

// Accepted describes one observation the publisher accepted, as delivered
// to Subscribe callbacks: the 1-based sequence number that totals the
// accepted stream, the publisher's copy of the point, and the observation's
// identity on the causal event spine (zero when no recorder is installed),
// which replication carries across the wire so a follower's hops land on
// the same trace.
type Accepted struct {
	Seq    uint64
	Point  geom.Point
	Value  float64
	Cause  uint64 // causal ID minted at Observe; 0 = untraced
	MintNS int64  // recorder clock reading at the mint; 0 = unknown
}

// subscriber is one registered accepted-observation hook.
type subscriber struct {
	fn func(acc Accepted)
}

// accept enqueues an observation and performs its bookkeeping: counters,
// telemetry, the crash-safety journal, the subscriber fan-out, and the
// observe/journal hops on the event spine. The enqueue, sequence
// assignment, journal append and fan-out share one critical section (see
// jmu) so all consumers agree on the order.
func (pub *Publisher) accept(o observation) error {
	pub.jmu.Lock()
	if pub.closed.Load() {
		pub.jmu.Unlock()
		return ErrPublisherClosed
	}
	//lint:ignore chanowner the writer drains the queue until Close stops it, and Close waits for jmu first, so this send always completes
	pub.queue <- o
	pub.submitted.Add(1)
	if tel := pub.tel.Load(); tel != nil {
		tel.submitted.Inc()
	}
	pub.seq++
	seq := pub.seq
	var jerr error
	if pub.journal != nil {
		jerr = pub.journal.Append(o.p, o.actual)
	}
	acc := Accepted{Seq: seq, Point: o.p, Value: o.actual, Cause: o.cause, MintNS: o.mint}
	for _, s := range pub.subs {
		s.fn(acc)
	}
	pub.jmu.Unlock()
	pub.events.EmitHop(events.SubCore, events.KindObserve, o.cause, o.mint, 0, seq)
	if pub.journal == nil {
		return nil
	}
	if jerr != nil {
		// Journaling degrades gracefully: a full or failing journal costs
		// crash-safety for this observation, never liveness of the loop.
		pub.journalErrs.Add(1)
		if tel := pub.tel.Load(); tel != nil {
			tel.journalErrs.Inc()
		}
		return nil
	}
	pub.journaled.Add(1)
	if tel := pub.tel.Load(); tel != nil {
		tel.journaled.Inc()
	}
	pub.events.EmitHop(events.SubJournal, events.KindJournalAppend, o.cause, o.mint, 0, seq)
	return nil
}

// Subscribe registers fn to be called synchronously for every observation
// the publisher accepts from now on. The callback runs on the observer's
// goroutine inside the accepted-observation critical section — after the
// observation is enqueued and journaled, before Observe returns — so
// callbacks for seq n and n+1 never race each other and arrive in sequence
// order. Keep callbacks fast and non-blocking (hand off to a queue;
// replication streams do): a slow subscriber backpressures every Observe.
// Accepted.Point is the publisher's own copy and must not be mutated.
// The returned cancel removes the subscription; it is safe to call twice.
func (pub *Publisher) Subscribe(fn func(acc Accepted)) (cancel func()) {
	s := &subscriber{fn: fn}
	pub.jmu.Lock()
	pub.subs = append(pub.subs, s)
	pub.jmu.Unlock()
	return func() {
		pub.jmu.Lock()
		for i, cur := range pub.subs {
			if cur == s {
				pub.subs = append(pub.subs[:i], pub.subs[i+1:]...)
				break
			}
		}
		pub.jmu.Unlock()
	}
}

// AcceptedSeq returns the sequence number of the most recently accepted
// observation (0 before any). It is the high-water mark a replication
// follower measures its lag against.
func (pub *Publisher) AcceptedSeq() uint64 {
	pub.jmu.Lock()
	defer pub.jmu.Unlock()
	return pub.seq
}

// OnPublish registers fn to be called from the writer goroutine immediately
// after each snapshot publish, with the new epoch and the cumulative count
// of observations applied through it. Replication uses it to install the
// primary's own read view. Install it before the first Observe; passing nil
// removes the hook.
func (pub *Publisher) OnPublish(fn func(epoch uint64, applied int64)) {
	if fn == nil {
		pub.onPublish.Store(nil)
		return
	}
	pub.onPublish.Store(&fn)
}

// Name implements Model.
func (pub *Publisher) Name() string { return pub.name }

// Snapshot returns the current published snapshot. Callers may hold it as
// long as they like; it never changes.
func (pub *Publisher) Snapshot() *quadtree.Snapshot { return pub.cur.Load().snap }

// Epoch returns the current snapshot's generation number. It starts at 0
// (the empty or freshly wrapped tree) and increases by exactly 1 per
// published batch, so readers can detect and order refreshes.
func (pub *Publisher) Epoch() uint64 { return pub.cur.Load().epoch }

// Staleness returns how many accepted observations are not yet reflected in
// the published snapshot (queued or mid-batch). It is bounded above by
// QueueCapacity + MaxBatch.
func (pub *Publisher) Staleness() int64 {
	s := pub.submitted.Load() - pub.applied.Load()
	if s < 0 {
		// Observe increments submitted after its enqueue succeeds, so a
		// batch can be counted as applied before its submissions are; the
		// window is benign but must not read as negative staleness.
		return 0
	}
	return s
}

// PublisherStats is a point-in-time snapshot of the publisher's acceptance
// accounting. Submitted = Applied + pending, and pending is zero after
// Flush or Close.
type PublisherStats struct {
	Submitted     int64 // observations accepted by Observe
	Applied       int64 // folded into a published snapshot
	Journaled     int64 // accepted observations persisted to the journal
	JournalErrors int64 // journal appends that failed (full or IO error)
}

// Stats returns the publisher's cumulative acceptance/loss counters.
func (pub *Publisher) Stats() PublisherStats {
	return PublisherStats{
		Submitted:     pub.submitted.Load(),
		Applied:       pub.applied.Load(),
		Journaled:     pub.journaled.Load(),
		JournalErrors: pub.journalErrs.Load(),
	}
}

// Flush blocks until every observation accepted before the call is applied
// and published, then returns the writer's first insert error since the
// previous Flush (nil in normal operation). It is the barrier the serial
// experiments and the catalog use to get a loss-free snapshot. After Close,
// Flush always reports ErrPublisherClosed — never a stale drained writer
// error, which belongs to the Close that performed the final drain.
func (pub *Publisher) Flush() error {
	select {
	case <-pub.writerDone:
		// The writer is gone: the queue was drained by Close, and Close's
		// return value owns any deferred writer error. Reporting it again
		// here (or worse, stealing it before Close reads it) would hand a
		// stale error to a caller whose observations were never accepted.
		return ErrPublisherClosed
	default:
	}
	target := pub.submitted.Load()
	req := flushRequest{target: target, done: make(chan error, 1)}
	select {
	case pub.flushReq <- req:
		return <-req.done
	case <-pub.writerDone:
		return ErrPublisherClosed
	}
}

// Resize routes a live memory-budget change through the writer goroutine,
// as a command alongside the batched observes: the writer applies (and
// publishes) any batch in flight first, moves the tree's limit — shrinking
// compresses down to the new budget, growing raises the ceiling — and then
// publishes the post-resize tree under its own fresh epoch. No published
// snapshot ever mixes state from both sides of a budget change, and epochs
// stay strictly monotonic across resizes and batches alike. Blocks until
// the change is published; returns the tree's validation error for budgets
// below one node, or ErrPublisherClosed after Close has begun.
func (pub *Publisher) Resize(newLimit int) error {
	req := resizeRequest{limit: newLimit, done: make(chan error, 1)}
	select {
	case pub.resizeReq <- req:
		// The writer holds the request and always replies exactly once,
		// even when Close races in behind it.
		return <-req.done
	case <-pub.writerDone:
		return ErrPublisherClosed
	}
}

// MemoryLimit returns the live memory budget of the published snapshot —
// the limit the most recent batch or resize was published under.
func (pub *Publisher) MemoryLimit() int { return pub.cur.Load().snap.MemoryLimit() }

// Resizes returns how many budget changes the writer has applied.
func (pub *Publisher) Resizes() int64 { return pub.resizes.Load() }

// Checkpoint flushes the publisher, then truncates the journal: every
// journaled observation is now reflected in the published snapshot, so a
// durable save of the model (e.g. catalog.SaveFile of Snapshot) supersedes
// the journal's contents. Call it right after such a save to keep the
// journal's bounded capacity from filling with already-persisted history.
func (pub *Publisher) Checkpoint() error {
	if err := pub.Flush(); err != nil {
		return err
	}
	if pub.journal == nil {
		return nil
	}
	pub.jmu.Lock()
	err := pub.journal.Reset()
	pub.jmu.Unlock()
	return err
}

// Close drains the queue, publishes a final snapshot, stops the writer
// goroutine and returns the writer's first unreported insert error. Close is
// idempotent; Observe calls racing with it either enqueue in time for the
// final batch or report the publisher closed.
func (pub *Publisher) Close() error {
	pub.closeOnce.Do(func() {
		// Once closed is set no Observe enqueues; taking jmu waits out the
		// ones already past the check, so the final drain sees them all.
		pub.closed.Store(true)
		pub.jmu.Lock()
		pub.jmu.Unlock()
		close(pub.stop)
		<-pub.writerDone
		pub.closeErr = pub.drainErr()
	})
	return pub.closeErr
}

// writer is the single goroutine that owns the tree after NewPublisher.
func (pub *Publisher) writer(m *MLQ) {
	defer close(pub.writerDone)
	var epoch uint64
	batch := make([]observation, 0, pub.maxBatch)

	apply := func() {
		if len(batch) == 0 {
			return
		}
		for _, o := range batch {
			if err := m.Observe(o.p, o.actual); err != nil {
				// Validation already ran in Observe, so this is a tree-level
				// failure; record it for Flush/Close rather than dying.
				pub.recordErr(err)
			}
			pub.events.EmitHop(events.SubCore, events.KindBatchDrain, o.cause, o.mint, 0, 0)
		}
		epoch++
		pub.cur.Store(&epochState{snap: m.tree.Snapshot(), epoch: epoch})
		applied := pub.applied.Add(int64(len(batch)))
		// The epoch-publish hop covers the whole batch, so it carries no
		// single causal ID; traces join it by the applied watermark — the
		// accepted-sequence high-water mark this snapshot reflects (exact
		// under ordered ingress, which replication guarantees).
		pub.events.Emit(events.SubCore, events.KindEpochPublish, 0, epoch, uint64(applied))
		if fn := pub.onPublish.Load(); fn != nil {
			(*fn)(epoch, applied)
		}
		if tel := pub.tel.Load(); tel != nil {
			tel.publish(pub, len(batch))
		}
		batch = batch[:0]
	}

	// fill appends queued observations without blocking, up to maxBatch.
	fill := func() {
		for len(batch) < pub.maxBatch {
			select {
			case o := <-pub.queue:
				batch = append(batch, o)
			default:
				return
			}
		}
	}

	for {
		select {
		case o := <-pub.queue:
			batch = append(batch, o)
			fill()
			apply()
		case req := <-pub.flushReq:
			// Observe enqueues before it increments submitted, so everything
			// accepted before the Flush call is already in the queue and
			// non-blocking fills reach the target.
			for pub.applied.Load() < req.target {
				fill()
				apply()
			}
			//lint:ignore chanowner req.done is a cap-1 reply slot created by Flush for exactly one reply; the send can never block
			req.done <- pub.drainErr()
		case req := <-pub.resizeReq:
			// A budget change is a command in the same stream as batched
			// observes: any batch in flight publishes under its own epoch
			// first (a no-op in the steady state, where the batch is empty
			// between selects), then the resized tree gets a fresh epoch of
			// its own — no snapshot straddles the change.
			apply()
			old := m.tree.MemoryLimit()
			err := m.Resize(req.limit)
			if err == nil {
				pub.resizes.Add(1)
				epoch++
				pub.cur.Store(&epochState{snap: m.tree.Snapshot(), epoch: epoch})
				pub.events.Emit(events.SubCore, events.KindResize, 0, uint64(old), uint64(req.limit))
				if fn := pub.onPublish.Load(); fn != nil {
					(*fn)(epoch, pub.applied.Load())
				}
				if tel := pub.tel.Load(); tel != nil {
					tel.refresh(pub)
					tel.resizes.Inc()
				}
			}
			//lint:ignore chanowner req.done is a cap-1 reply slot created by Resize for exactly one reply; the send can never block
			req.done <- err
		case <-pub.stop:
			// Final drain: Close waited out every Observe that passed the
			// closed check before stopping the writer, so every accepted
			// observation is already in the queue; applying it all loses
			// none of them.
			for fill(); len(batch) > 0; fill() {
				apply()
			}
			return
		}
	}
}

func (pub *Publisher) recordErr(err error) {
	pub.errMu.Lock()
	if pub.deferredErr == nil {
		pub.deferredErr = err
	}
	pub.errMu.Unlock()
	if tel := pub.tel.Load(); tel != nil {
		tel.writerErrs.Inc()
	}
}

func (pub *Publisher) drainErr() error {
	pub.errMu.Lock()
	defer pub.errMu.Unlock()
	err := pub.deferredErr
	pub.deferredErr = nil
	return err
}

// ReplayJournal feeds a crash-safety journal's surviving records into m in
// order, returning how many were applied and how many trailing bytes were
// cut as a torn/corrupt tail (expected after a kill — not an error). A
// missing file replays zero records. Records the model rejects (wrong
// dimensionality — a foreign journal) abort the replay with an error. Call
// it on the fresh MLQ before wrapping it in a Publisher.
func ReplayJournal(m *MLQ, path string) (applied int, truncated int64, err error) {
	return ReplayJournalEvents(m, path, nil)
}

// ReplayJournalEvents is ReplayJournal with the event spine attached: a
// torn tail — the journal-truncation fault — emits a journal-torn event and
// fires the flight recorder, so the post-kill dump shows what the loop was
// doing when the tail was lost. rec may be nil.
func ReplayJournalEvents(m *MLQ, path string, rec *events.Recorder) (applied int, truncated int64, err error) {
	recs, truncated, err := journal.ReplayFile(path)
	if err != nil {
		return 0, truncated, err
	}
	for _, r := range recs {
		if err := m.Observe(geom.Point(r.Point), r.Value); err != nil {
			return applied, truncated, fmt.Errorf("core: journal replay at record %d: %w", applied, err)
		}
		applied++
	}
	if truncated > 0 {
		rec.Emit(events.SubJournal, events.KindJournalTorn, 0, uint64(applied), uint64(truncated))
		rec.Trigger("journal-torn")
	}
	return applied, truncated, nil
}

// publisherTelemetry mirrors the publisher's feedback-loop health into a
// telemetry registry.
type publisherTelemetry struct {
	epoch      *telemetry.Gauge
	staleness  *telemetry.Gauge
	queueDepth *telemetry.Gauge
	nodes      *telemetry.Gauge

	submitted  *telemetry.Counter
	appliedC   *telemetry.Counter
	batches    *telemetry.Counter
	writerErrs *telemetry.Counter
	resizes    *telemetry.Counter

	journaled   *telemetry.Counter
	journalErrs *telemetry.Counter
}

// Instrument registers the publisher's metrics under mlq_publisher_* with
// the given labels. Gauges are published by the writer goroutine at every
// epoch; the queue-depth gauge is sampled at the same points.
func (pub *Publisher) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	if reg == nil {
		pub.tel.Store(nil)
		return
	}
	pub.tel.Store(&publisherTelemetry{
		epoch:      reg.Gauge("mlq_publisher_epoch", "generation number of the published snapshot", labels...),
		staleness:  reg.Gauge("mlq_publisher_staleness", "accepted observations not yet in the published snapshot", labels...),
		queueDepth: reg.Gauge("mlq_publisher_queue_depth", "observations waiting in the ingest queue", labels...),
		nodes:      reg.Gauge("mlq_publisher_snapshot_nodes", "node count of the published snapshot", labels...),

		submitted:  reg.Counter("mlq_publisher_observations_total", "observations accepted by Observe", labels...),
		appliedC:   reg.Counter("mlq_publisher_applied_total", "observations folded into published snapshots", labels...),
		batches:    reg.Counter("mlq_publisher_batches_total", "batches applied and published", labels...),
		writerErrs: reg.Counter("mlq_publisher_writer_errors_total", "tree-level insert failures on the writer goroutine", labels...),
		resizes:    reg.Counter("mlq_publisher_resizes_total", "budget changes applied through the writer goroutine", labels...),

		journaled:   reg.Counter("mlq_publisher_journaled_total", "accepted observations persisted to the crash-safety journal", labels...),
		journalErrs: reg.Counter("mlq_publisher_journal_errors_total", "journal appends that failed (journal full or IO error)", labels...),
	})
}

// publish pushes the post-batch state into the registered metrics. Called
// from the writer goroutine only.
func (tel *publisherTelemetry) publish(pub *Publisher, batchLen int) {
	tel.refresh(pub)
	tel.appliedC.Add(int64(batchLen))
	tel.batches.Inc()
}

// refresh re-publishes the gauges without counting a batch: the resize
// command publishes an epoch that applied no observations. Called from the
// writer goroutine only.
func (tel *publisherTelemetry) refresh(pub *Publisher) {
	st := pub.cur.Load()
	tel.epoch.SetInt(int64(st.epoch))
	tel.staleness.SetInt(pub.Staleness())
	tel.queueDepth.SetInt(int64(len(pub.queue)))
	tel.nodes.SetInt(int64(st.snap.NodeCount()))
}
