package distsweep

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neatbound/internal/sweep"
)

// Progress event reasons (Progress.Reason). Fields and values are
// add-only: consumers must treat unknown reasons as they treat "".
const (
	// ReasonResumed marks a commit event for a shard replayed from the
	// checkpoint journal rather than recomputed.
	ReasonResumed = "resumed"
	// ReasonStall marks a retry whose failed attempt was declared
	// stalled (no record/summary progress within Options.StallTimeout).
	ReasonStall = "stall"
	// ReasonLaunch marks a retry caused by a worker launch failure.
	ReasonLaunch = "launch"
	// ReasonError marks a retry caused by any other attempt failure (a
	// transport break, a framing mismatch, a failed shard summary).
	ReasonError = "error"
)

// Progress is the coordinator's report after every committed or failed
// shard.
type Progress struct {
	// ShardsDone and Shards count committed shards against the total.
	ShardsDone, Shards int
	// Cells counts committed cell records (replicate-tagged included).
	Cells int
	// Retries counts shard reassignments after failures so far.
	Retries int
	// Shard is the shard this event concerns: the shard that just
	// committed, or — when Retried is set — the shard whose failed
	// attempt was just reassigned. Consumers that fold events per shard
	// (cmd/sweep's final retry summary, sweepd's job status and SSE
	// stream) key on it.
	Shard int
	// Retried marks a reassignment event (the shard failed and was
	// requeued) as opposed to a commit event.
	Retried bool
	// Stalled marks a Retried event whose failed attempt made no
	// record/summary progress within Options.StallTimeout. (Add-only,
	// like every Progress field.)
	Stalled bool
	// Reason classifies the event beyond the booleans: "" for an
	// ordinary commit, ReasonResumed for a checkpoint replay, and the
	// failure class (ReasonStall, ReasonLaunch, ReasonError) for Retried
	// events.
	Reason string
}

// Options tunes the coordinator.
type Options struct {
	// Workers is the number of workers to launch; values < 1 mean 1.
	// The coordinator never launches more workers than shards.
	Workers int
	// Shards is the target shard count for Partition; 0 means one per
	// worker.
	Shards int
	// Retries bounds how often one shard may be reassigned after a
	// failure before the sweep fails (default 2; negative disables
	// retries). Permanent failures (a rejected spec, a protocol version
	// mismatch) fail the sweep immediately without burning the budget.
	Retries int
	// Executor launches workers; nil runs them in-process, dividing the
	// GOMAXPROCS job-queue budget across the fleet.
	Executor Executor
	// Checkpoint, when non-nil, persists every committed shard's cell
	// stream to the shard-checkpoint journal before the shard is
	// announced committed, and — with Resume — replays the journal at
	// startup so only the remaining shards are dispatched. The journal
	// is bound to this sweep's SweepKey; a journal written by a
	// different sweep or partitioning is refused, never merged.
	Checkpoint *Checkpoint
	// Resume replays Checkpoint's committed shards instead of refusing
	// a non-empty journal. It requires Checkpoint.
	Resume bool
	// StallTimeout is the per-shard liveness deadline: an in-flight
	// attempt whose worker produces no record or summary for this long
	// is declared stalled, torn down, and requeued under the retry
	// budget. 0 disables stall detection. The deadline is wall-clock,
	// entirely outside the simulation's RNG streams.
	StallTimeout time.Duration
	// RespawnBackoff is the base delay before relaunching a worker
	// after a failed attempt or launch: consecutive failures on one
	// worker slot back off exponentially (×2 per failure, capped at
	// RespawnBackoffMax, default 32× the base) with ±50% jitter, so a
	// repeatedly-dying executor is not hammered. 0 disables backoff.
	// The backoff clock is wall time — it never touches simulation RNG
	// streams, so bit-identity is unaffected.
	RespawnBackoff time.Duration
	// RespawnBackoffMax caps the exponential backoff (0 = 32× the
	// base).
	RespawnBackoffMax time.Duration
	// OnProgress, when non-nil, is called after every committed or
	// failed shard, serialized, on an internal goroutine; it must not
	// block.
	OnProgress func(Progress)
	// OnCell, when non-nil, receives every grid cell exactly once, as
	// soon as it is fully committed (its shard's summary arrived clean
	// and, for replicate-split cells, every covering shard landed).
	// Resumed shards deliver their cells through the same path. Calls
	// are serialized on internal goroutines, in completion order;
	// OnCell must not block.
	OnCell func(sweep.AggregateCell)
}

// defaultRetries is the per-shard reassignment bound when Options leaves
// Retries zero.
const defaultRetries = 2

// permanentError marks a shard failure no retry can fix — the worker
// understood the spec and rejected it (validation, a newer protocol
// version). The coordinator fails the sweep immediately instead of
// burning the retry budget on it.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// stallError marks an attempt torn down by the stall watchdog.
type stallError struct{ err error }

func (e *stallError) Error() string { return e.err.Error() }
func (e *stallError) Unwrap() error { return e.err }

// launchError marks a worker launch failure.
type launchError struct{ err error }

func (e *launchError) Error() string { return e.err.Error() }
func (e *launchError) Unwrap() error { return e.err }

// failReason classifies a failed attempt for Progress.Reason.
func failReason(err error) (reason string, stalled bool) {
	var st *stallError
	if errors.As(err, &st) {
		return ReasonStall, true
	}
	var le *launchError
	if errors.As(err, &le) {
		return ReasonLaunch, false
	}
	return ReasonError, false
}

// Run drives a distributed sweep: it partitions s, launches workers
// through the executor, dispatches shard specs, and reassembles the
// returned cell streams into the parent grid's ν-major order — bit for
// bit what the single-process sweep.RunGrid would have produced for any
// partitioning. Failed shard attempts are discarded wholesale and
// requeued (see the package comment's fault-tolerance contract, and
// docs/faults.md for the full statement).
//
// Cancelling ctx stops the fleet promptly — subprocess workers are
// killed, in-process workers stop within one engine round — and Run
// returns the cells committed so far together with ctx.Err().
func Run(ctx context.Context, s Sweep, opts Options) ([]sweep.AggregateCell, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if opts.Resume && opts.Checkpoint == nil {
		return nil, errors.New("distsweep: Options.Resume requires Options.Checkpoint")
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	target := opts.Shards
	if target == 0 {
		target = workers
	}
	specs := Partition(s, target)
	retries := opts.Retries
	if retries == 0 {
		retries = defaultRetries
	} else if retries < 0 {
		retries = 0
	}
	ex := opts.Executor
	if ex == nil {
		// Default in-process fleet: divide the job-queue budget across
		// the workers so W of them don't each spin up a GOMAXPROCS-wide
		// queue (a W-fold oversubscription in CPU-bound engine jobs).
		per := runtime.GOMAXPROCS(0) / workers
		if per < 1 {
			per = 1
		}
		ex = InProcess{Opts: WorkerOptions{Workers: per}}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	c := &coordinator{
		sweep:   s,
		specs:   specs,
		retries: retries,
		ex:      ex,
		ctx:     runCtx,
		cancel:  cancel,
		// A shard has at most one queued instance at a time (it is
		// requeued only after its in-flight attempt fails), so len(specs)
		// bounds the channel occupancy regardless of the retry budget.
		work: make(chan int, len(specs)),
		opts: opts,
	}
	c.initPlacement()

	resumed := make(map[int]bool)
	if opts.Checkpoint != nil {
		c.cpKey = SweepKey(specs)
		ids, cells, err := opts.Checkpoint.load(c.cpKey, opts.Resume, len(specs))
		if err != nil {
			return nil, err
		}
		// Replay committed shards through the live commit fold — the
		// reassembled grid is byte-identical to a never-interrupted run,
		// and replicate-split cells refold correctly even when their
		// covering shards span the resumed/live boundary. Replay runs
		// before any worker starts, so callbacks fire sequentially.
		for i, id := range ids {
			if err := c.replayShard(id, cells[i]); err != nil {
				return nil, err
			}
			resumed[id] = true
		}
	}
	for i := range specs {
		if !resumed[i] {
			c.work <- i
		}
	}
	pending := len(specs) - len(resumed)
	if workers > pending {
		workers = pending
	}

	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c.runWorker(id)
		}(id)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return c.out, err
	}
	if c.fatal != nil {
		return nil, c.fatal
	}
	if c.done < len(specs) {
		// Every worker goroutine exited (launch failures) with shards
		// still pending.
		err := c.launchErr
		if err == nil {
			err = errors.New("distsweep: workers exhausted before all shards completed")
		}
		return nil, err
	}
	for idx, ok := range c.placed {
		if !ok {
			return nil, fmt.Errorf("distsweep: internal error: cell %d never committed", idx)
		}
	}
	return c.out, nil
}

// coordinator is Run's shared state; mu guards everything below it.
// cbMu serializes the user callbacks (OnProgress, OnCell) and is always
// acquired before mu, so callback invocations see state snapshots in a
// consistent, monotone order.
type coordinator struct {
	sweep   Sweep
	specs   []ShardSpec
	retries int
	ex      Executor
	ctx     context.Context
	cancel  context.CancelFunc
	work    chan int
	opts    Options
	cpKey   string // SweepKey when Options.Checkpoint is set

	cbMu      sync.Mutex
	mu        sync.Mutex
	out       []sweep.AggregateCell
	placed    []bool
	cellIdx   map[cellKey]int
	repParts  map[int][]sweep.AggregateCell // cell idx → per-replicate records
	repSeen   map[int][]bool
	repCount  map[int]int
	failures  []int
	done      int
	cells     int
	reassigns int
	fatal     error
	launchErr error
	closed    bool
}

func (c *coordinator) initPlacement() {
	nCells := len(c.sweep.NuValues) * len(c.sweep.CValues)
	c.out = make([]sweep.AggregateCell, nCells)
	c.placed = make([]bool, nCells)
	c.cellIdx = make(map[cellKey]int, nCells)
	idx := 0
	for _, nu := range c.sweep.NuValues {
		for _, cv := range c.sweep.CValues {
			c.cellIdx[cellKey{nu, cv}] = idx
			idx++
		}
	}
	c.repParts = make(map[int][]sweep.AggregateCell)
	c.repSeen = make(map[int][]bool)
	c.repCount = make(map[int]int)
	c.failures = make([]int, len(c.specs))
}

// session is one live worker connection plus its persistent record
// scanner (a fresh scanner per shard could buffer past record
// boundaries). Both the stall watchdog and the owning worker goroutine
// may tear the connection down; WorkerConn makes that happen at most
// once, and aborted tells the owner the connection is gone.
type session struct {
	conn      *WorkerConn
	enc       *json.Encoder
	sc        *bufio.Scanner
	lastNanos atomic.Int64 // wall clock of the attempt's last progress
	stalled   atomic.Bool
	aborted   atomic.Bool
}

func newSession(conn *WorkerConn) *session {
	sc := bufio.NewScanner(conn.Out)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &session{conn: conn, enc: json.NewEncoder(conn.In), sc: sc}
}

// abort tears the worker down forcefully (a no-op once the connection
// is already torn down).
func (s *session) abort() {
	s.aborted.Store(true)
	s.conn.Abort()
}

// touch records attempt progress for the stall watchdog.
func (s *session) touch() { s.lastNanos.Store(time.Now().UnixNano()) }

// runWorker is one worker goroutine: it owns (re)launching its worker
// and drives shards over the connection until the queue closes or the
// context dies. A shard that fails for any reason — launch failure,
// transport error, stall, failed summary — is handed to fail() for
// reassignment (or fast fatal when permanent), and the connection is
// dropped so the next shard starts on a fresh worker. Consecutive
// failures back off exponentially before the next launch
// (Options.RespawnBackoff), so a repeatedly-dying executor is retried
// patiently instead of hammered.
func (c *coordinator) runWorker(id int) {
	var sess *session
	fails := 0 // consecutive failures on this worker slot
	defer func() {
		if sess != nil {
			sess.conn.Close()
		}
	}()
	for {
		var shardID int
		select {
		case <-c.ctx.Done():
			return
		case s, ok := <-c.work:
			if !ok {
				return
			}
			shardID = s
		}
		if sess == nil {
			if fails > 0 && !c.backoff(fails) {
				return // ctx died during backoff; the sweep is over
			}
			conn, err := c.ex.Start(c.ctx, id)
			if err != nil {
				c.noteLaunchFailure(err)
				fails++
				c.fail(shardID, &launchError{fmt.Errorf("distsweep: launch worker %d: %w", id, err)})
				continue
			}
			sess = newSession(conn)
		}
		err := c.runShardOn(sess, c.specs[shardID])
		if err == nil && sess.aborted.Load() {
			// The watchdog tore the worker down on cancellation after
			// the summary arrived clean: the shard stands, the
			// connection is gone and must not be reused.
			sess = nil
		}
		if err != nil {
			// The worker's state is unknown after a failed attempt (it may
			// be wedged mid-stream), so tear it down forcefully rather
			// than waiting on it. The teardown also reaps the worker,
			// which flushes its captured stderr — so the bounded tail
			// (when the executor keeps one) rides along in the error and
			// a dead subprocess reports more than a bare pipe error.
			sess.abort()
			err = withStderrTail(sess.conn, err)
			sess = nil
			fails++
			c.fail(shardID, err)
			continue
		}
		fails = 0
		c.commitDone(shardID, "")
	}
}

// backoff sleeps the exponential respawn delay for the n-th consecutive
// failure (n ≥ 1), returning false if the context died first. Jitter is
// ±50%, drawn from the process-wide math/rand stream — wall-clock
// machinery entirely outside the simulation's seeded RNG streams.
func (c *coordinator) backoff(n int) bool {
	base := c.opts.RespawnBackoff
	if base <= 0 {
		return true
	}
	max := c.opts.RespawnBackoffMax
	if max <= 0 {
		max = 32 * base
	}
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	d = d/2 + rand.N(d) // jitter: uniform in [d/2, 3d/2)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.ctx.Done():
		return false
	}
}

// withStderrTail augments a failed attempt's error with the worker's
// recent stderr when the connection captured one (Subprocess does).
func withStderrTail(conn *WorkerConn, err error) error {
	if conn.Diag == nil {
		return err
	}
	tail := strings.TrimSpace(conn.Diag())
	if tail == "" {
		return err
	}
	return fmt.Errorf("%w; worker stderr tail:\n%s", err, tail)
}

// runShardOn dispatches one shard over the session and buffers its cell
// records until the summary record arrives clean; only then is the
// attempt committed. Any transport break, framing mismatch, stall, or
// summary error voids the attempt without touching coordinator state.
func (c *coordinator) runShardOn(sess *session, spec ShardSpec) error {
	// Stall watchdog: if the worker makes no record/summary progress
	// within the deadline, tear the connection down — that unblocks the
	// scanner read below — and classify the failure as a stall.
	if c.opts.StallTimeout > 0 {
		sess.touch()
		// The watchdog is joined before returning, so the caller sees
		// sess.aborted final: a session it aborted is never reused.
		watchDone := make(chan struct{})
		watchExited := make(chan struct{})
		defer func() {
			close(watchDone)
			<-watchExited
		}()
		go func() {
			defer close(watchExited)
			c.watchStall(sess, watchDone)
		}()
	}
	if err := sess.enc.Encode(requestRecord{Spec: &spec}); err != nil {
		return c.classifyAttempt(sess, spec, fmt.Errorf("distsweep: send shard %d: %w", spec.Shard, err))
	}
	var cells []sweep.AggregateCell
	var reps []int
	var raw []json.RawMessage // kept only when a checkpoint will persist them
	for {
		if !sess.sc.Scan() {
			if err := sess.sc.Err(); err != nil {
				return c.classifyAttempt(sess, spec, fmt.Errorf("distsweep: shard %d: read records: %w", spec.Shard, err))
			}
			return c.classifyAttempt(sess, spec, fmt.Errorf("distsweep: shard %d: %w before shard summary", spec.Shard, io.ErrUnexpectedEOF))
		}
		sess.touch()
		line := sess.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe summaryRecord
		if err := json.Unmarshal(line, &probe); err == nil && probe.Summary != nil {
			sum := probe.Summary
			if sum.Shard != spec.Shard {
				return fmt.Errorf("distsweep: shard %d: summary for shard %d", spec.Shard, sum.Shard)
			}
			if sum.Error != "" {
				err := fmt.Errorf("distsweep: shard %d failed on worker: %s", spec.Shard, sum.Error)
				if sum.Permanent {
					// The worker understood the spec and rejected it;
					// retrying cannot change the outcome.
					return &permanentError{err}
				}
				return err
			}
			if sum.Cells != len(cells) {
				return fmt.Errorf("distsweep: shard %d: summary counts %d records, received %d",
					spec.Shard, sum.Cells, len(cells))
			}
			break
		}
		cell, rep, err := sweep.UnmarshalCellLine(line)
		if err != nil {
			return fmt.Errorf("distsweep: shard %d: %w", spec.Shard, err)
		}
		if rep < 0 {
			rep = -1 // normalize: any negative tag means "plain aggregate"
		}
		cells = append(cells, cell)
		reps = append(reps, rep)
		if c.opts.Checkpoint != nil {
			raw = append(raw, json.RawMessage(append([]byte(nil), line...)))
		}
	}
	if want := spec.expectedRecords(); len(cells) != want {
		return fmt.Errorf("distsweep: shard %d: %d records, expected %d", spec.Shard, len(cells), want)
	}
	return c.commit(spec, cells, reps, raw, false)
}

// classifyAttempt rewrites a transport-level failure as a stall when
// the watchdog tore this attempt down.
func (c *coordinator) classifyAttempt(sess *session, spec ShardSpec, err error) error {
	if sess.stalled.Load() {
		return &stallError{fmt.Errorf("distsweep: shard %d: no progress within %v, worker presumed hung: %w",
			spec.Shard, c.opts.StallTimeout, err)}
	}
	return err
}

// watchStall is one attempt's liveness watchdog: it aborts the session
// once no progress has been observed for StallTimeout, and also when the
// run is cancelled — the owning goroutine may be blocked in a read that
// only a teardown can unblock (a wedged worker cannot be relied on to
// notice the cancellation itself). It exits when the attempt finishes
// (done closes).
func (c *coordinator) watchStall(sess *session, done <-chan struct{}) {
	timeout := c.opts.StallTimeout
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-c.ctx.Done():
			sess.abort()
			return
		case <-t.C:
			idle := time.Since(time.Unix(0, sess.lastNanos.Load()))
			if idle >= timeout {
				sess.stalled.Store(true)
				sess.abort()
				return
			}
			t.Reset(timeout - idle)
		}
	}
}

// replayShard folds one checkpointed shard back into the grid: its raw
// cell lines parse through the same interchange reader live records use
// and re-enter the same commit fold, so a resumed grid is byte-identical
// to a never-interrupted one. The shard is then announced like any other
// commit, with Reason = ReasonResumed.
func (c *coordinator) replayShard(shardID int, rawCells []json.RawMessage) error {
	spec := c.specs[shardID]
	cells := make([]sweep.AggregateCell, 0, len(rawCells))
	reps := make([]int, 0, len(rawCells))
	for _, line := range rawCells {
		cell, rep, err := sweep.UnmarshalCellLine(line)
		if err != nil {
			return fmt.Errorf("distsweep: checkpointed shard %d: %w", shardID, err)
		}
		if rep < 0 {
			rep = -1
		}
		cells = append(cells, cell)
		reps = append(reps, rep)
	}
	if want := spec.expectedRecords(); len(cells) != want {
		return fmt.Errorf("distsweep: checkpointed shard %d holds %d records, expected %d (checkpoint journal does not match this partitioning)",
			shardID, len(cells), want)
	}
	if err := c.commit(spec, cells, reps, nil, true); err != nil {
		return err
	}
	c.commitDone(shardID, ReasonResumed)
	return nil
}

// commit folds one clean shard attempt into the grid: aggregate records
// are placed directly at their parent index; replicate-tagged records
// accumulate per cell and are refolded — in global replicate order,
// through the same Welford fold the in-process aggregation uses — the
// moment the last covering shard lands. Commit is all-or-nothing: every
// record is validated before the first one touches shared state, so a
// rejected attempt really does leave the coordinator untouched and the
// shard retryable (the contract runShardOn and the package doc promise).
// With a checkpoint configured, the validated attempt is journaled —
// fsynced — after validation and before any of it is applied or
// announced, so a crash leaves either a resumable record or a cleanly
// recomputable shard, never a half-known one. Replayed shards skip the
// journal append (they are already in it).
func (c *coordinator) commit(spec ShardSpec, cells []sweep.AggregateCell, reps []int, raw []json.RawMessage, replay bool) error {
	var finished []sweep.AggregateCell
	if c.opts.OnCell != nil {
		// Serialize the OnCell calls below against every other callback
		// (cbMu before mu, per the lock order).
		c.cbMu.Lock()
		defer c.cbMu.Unlock()
	}
	c.mu.Lock()
	// Validation pass: resolve and check every record against both the
	// committed state and the attempt's own records, mutating nothing.
	idxs := make([]int, len(cells))
	staged := make(map[[2]int]bool, len(cells)) // (cell idx, rep) within this attempt
	for i, cell := range cells {
		idx, ok := c.cellIdx[cellKey{cell.Nu, cell.C}]
		if !ok {
			c.mu.Unlock()
			return fmt.Errorf("distsweep: shard %d: record for unknown cell (ν=%g, c=%g)", spec.Shard, cell.Nu, cell.C)
		}
		idxs[i] = idx
		if c.placed[idx] {
			c.mu.Unlock()
			return fmt.Errorf("distsweep: shard %d: cell (ν=%g, c=%g) already committed", spec.Shard, cell.Nu, cell.C)
		}
		rep := reps[i]
		if rep >= c.sweep.Replicates {
			c.mu.Unlock()
			return fmt.Errorf("distsweep: shard %d: replicate tag %d outside [0, %d)", spec.Shard, rep, c.sweep.Replicates)
		}
		if rep >= 0 && c.repSeen[idx] != nil && c.repSeen[idx][rep] {
			c.mu.Unlock()
			return fmt.Errorf("distsweep: shard %d: duplicate record for (ν=%g, c=%g) replicate %d", spec.Shard, cell.Nu, cell.C, rep)
		}
		if rep < 0 && (c.repCount[idx] > 0 || staged[[2]int{idx, -2}]) {
			// An aggregate claims the whole cell; it cannot coexist with
			// replicate-tagged records for the same cell (from this
			// attempt or a previously committed shard).
			c.mu.Unlock()
			return fmt.Errorf("distsweep: shard %d: aggregate for cell (ν=%g, c=%g) conflicts with replicate records", spec.Shard, cell.Nu, cell.C)
		}
		if rep >= 0 && staged[[2]int{idx, -1}] {
			c.mu.Unlock()
			return fmt.Errorf("distsweep: shard %d: replicate record for cell (ν=%g, c=%g) conflicts with an aggregate", spec.Shard, cell.Nu, cell.C)
		}
		key := [2]int{idx, rep}
		if staged[key] {
			c.mu.Unlock()
			return fmt.Errorf("distsweep: shard %d: repeated record for cell (ν=%g, c=%g) in one attempt", spec.Shard, cell.Nu, cell.C)
		}
		staged[key] = true
		if rep >= 0 {
			staged[[2]int{idx, -2}] = true // marks "has replicate records"
		}
	}
	// Durability pass: journal the validated attempt before anything is
	// applied or announced (fsync-before-announce). A failed journal
	// append is fatal to the sweep — retrying the shard cannot fix a
	// full or broken disk, and committing without the journal would let
	// a later resume recompute (and double-announce) this shard.
	if c.opts.Checkpoint != nil && !replay {
		if err := c.opts.Checkpoint.append(c.cpKey, spec.Shard, raw); err != nil {
			if c.fatal == nil {
				c.fatal = err
			}
			c.mu.Unlock()
			c.cancel()
			return err
		}
	}
	// Apply pass: infallible except for the terminal refold.
	for i, cell := range cells {
		idx := idxs[i]
		if reps[i] < 0 {
			c.out[idx] = cell
			c.placed[idx] = true
			finished = append(finished, cell)
			continue
		}
		rep := reps[i]
		if c.repParts[idx] == nil {
			c.repParts[idx] = make([]sweep.AggregateCell, c.sweep.Replicates)
			c.repSeen[idx] = make([]bool, c.sweep.Replicates)
		}
		c.repParts[idx][rep] = cell
		c.repSeen[idx][rep] = true
		c.repCount[idx]++
		if c.repCount[idx] == c.sweep.Replicates {
			agg, err := sweep.AggregateReplicates(cell.Nu, cell.C, c.repParts[idx])
			if err != nil {
				// Unreachable in practice (the fold fails only on
				// impossible counts), and the cell's parts are complete
				// and consistent — surface it as fatal rather than
				// retrying a shard that cannot fix it.
				c.mu.Unlock()
				return fmt.Errorf("distsweep: fold cell (ν=%g, c=%g): %w", cell.Nu, cell.C, err)
			}
			c.out[idx] = agg
			c.placed[idx] = true
			delete(c.repParts, idx)
			delete(c.repSeen, idx)
			delete(c.repCount, idx)
			finished = append(finished, agg)
		}
	}
	c.cells += len(cells)
	c.mu.Unlock()
	if c.opts.OnCell != nil {
		for _, cell := range finished {
			c.opts.OnCell(cell)
		}
	}
	return nil
}

// commitDone marks one shard committed, reports progress, and closes the
// queue after the last one. reason is "" for a live commit and
// ReasonResumed for a checkpoint replay.
func (c *coordinator) commitDone(shardID int, reason string) {
	c.cbMu.Lock()
	defer c.cbMu.Unlock()
	c.mu.Lock()
	c.done++
	last := c.done == len(c.specs)
	if last && !c.closed {
		c.closed = true
		close(c.work)
	}
	p := c.progressLocked()
	p.Shard = shardID
	p.Reason = reason
	c.mu.Unlock()
	c.report(p)
}

// fail reassigns one failed shard attempt, or kills the sweep — at once
// for permanent failures, after the retry budget for everything else.
// After context cancellation failures are expected fallout and are not
// retried or counted.
func (c *coordinator) fail(shardID int, err error) {
	if c.ctx.Err() != nil {
		return
	}
	var perm *permanentError
	if errors.As(err, &perm) {
		c.mu.Lock()
		if c.fatal == nil {
			c.fatal = fmt.Errorf("distsweep: shard %d failed permanently (not retrying): %w", shardID, err)
		}
		c.mu.Unlock()
		c.cancel()
		return
	}
	c.cbMu.Lock()
	defer c.cbMu.Unlock()
	c.mu.Lock()
	c.failures[shardID]++
	if c.failures[shardID] > c.retries {
		if c.fatal == nil {
			c.fatal = fmt.Errorf("distsweep: shard %d failed %d times, giving up: %w",
				shardID, c.failures[shardID], err)
		}
		c.mu.Unlock()
		c.cancel()
		return
	}
	c.reassigns++
	p := c.progressLocked()
	p.Shard = shardID
	p.Retried = true
	p.Reason, p.Stalled = failReason(err)
	if !c.closed {
		c.work <- shardID
	}
	c.mu.Unlock()
	c.report(p)
}

// noteLaunchFailure records the first executor launch error for the
// workers-exhausted diagnosis.
func (c *coordinator) noteLaunchFailure(err error) {
	c.mu.Lock()
	if c.launchErr == nil {
		c.launchErr = err
	}
	c.mu.Unlock()
}

func (c *coordinator) progressLocked() Progress {
	return Progress{ShardsDone: c.done, Shards: len(c.specs), Cells: c.cells, Retries: c.reassigns}
}

func (c *coordinator) report(p Progress) {
	if c.opts.OnProgress != nil {
		c.opts.OnProgress(p)
	}
}
