package distsweep

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
)

// WorkerConn is the coordinator's handle on one live worker: shard-spec
// request lines go down In, cell and summary records come back on Out.
// A connection is owned by exactly one coordinator goroutine at a time,
// except that its teardown (Close or Abort) may race with the owner's:
// a connection is torn down at most once, and every later Close or
// Abort returns the first teardown's error without touching the worker
// again.
type WorkerConn struct {
	// In receives the coordinator's shard-spec request lines; closing it
	// tells the worker to finish and exit.
	In io.WriteCloser
	// Out streams the worker's cell and shard-summary records.
	Out io.Reader
	// Wait, when non-nil, blocks until the worker has shut down after In
	// is closed (reaping a subprocess, joining a goroutine) and returns
	// its terminal error.
	Wait func() error
	// Kill, when non-nil, tears the worker down forcefully without
	// waiting for it to finish what it is doing, then reaps it. Abort
	// falls back to Close when Kill is nil.
	Kill func() error
	// Diag, when non-nil, returns a bounded diagnostic snapshot of the
	// worker — Subprocess wires it to a tail of the child's recent
	// stderr — which the coordinator appends to shard-failure errors so
	// a dead subprocess reports more than a bare pipe error. Safe to
	// call concurrently with the worker running. (Add-only, like every
	// WorkerConn field: a nil Diag just means no diagnostics.)
	Diag func() string

	endOnce sync.Once
	endErr  error
}

// Close shuts the worker down gracefully: it closes In (the protocol's
// shutdown signal) and then reaps via Wait. Use it on a worker that is
// idle between shards; a worker in an unknown state (a failed attempt)
// needs Abort.
func (c *WorkerConn) Close() error {
	c.endOnce.Do(func() { c.endErr = c.shutdown() })
	return c.endErr
}

// shutdown closes In and reaps via Wait.
func (c *WorkerConn) shutdown() error {
	err := c.In.Close()
	if c.Wait != nil {
		if werr := c.Wait(); err == nil {
			err = werr
		}
	}
	return err
}

// Abort tears the worker down forcefully — the right call after a
// failed shard attempt, when the worker may be wedged mid-stream and a
// graceful Close could wait on it (or, for a subprocess blocked writing
// into a no-longer-read pipe, deadlock against it) indefinitely.
func (c *WorkerConn) Abort() error {
	c.endOnce.Do(func() {
		if c.Kill != nil {
			c.endErr = c.Kill()
			return
		}
		c.endErr = c.shutdown()
	})
	return c.endErr
}

// Executor launches the workers a coordinator dispatches shards to. The
// two built-ins cover local use — InProcess for same-process fleets
// (tests, examples, the façade default) and Subprocess for real worker
// processes — and the interface is the seam where an ssh or kubernetes
// runner slots in later. Start must be safe for concurrent use: the
// coordinator launches and relaunches workers from its per-worker
// goroutines.
type Executor interface {
	// Start launches worker id (0-based) and returns its connection.
	Start(ctx context.Context, id int) (*WorkerConn, error)
}

// Subprocess launches each worker as a local child process speaking the
// shard protocol on its stdin/stdout — the executor behind cmd/sweep
// -coordinator. Cancelling the coordinator's ctx kills outstanding
// workers (exec.CommandContext), so a dying coordinator cannot leak a
// fleet.
type Subprocess struct {
	// Path is the worker binary; empty means the current executable.
	Path string
	// Args put the binary in worker mode (e.g. ["-worker"]).
	Args []string
	// Env, when non-nil, replaces the child's environment.
	Env []string
	// Stderr receives worker stderr; nil passes it through to the
	// coordinator's. Independently of where the full stream goes, each
	// connection keeps a bounded tail of it for WorkerConn.Diag, so a
	// worker's dying words ride along in shard-failure errors.
	Stderr io.Writer
	// TailBytes bounds each connection's retained stderr tail
	// (0 = 4 KiB).
	TailBytes int
}

// stderrTail tees a worker's stderr: every write passes through to the
// underlying sink and the last `limit` bytes are retained for Diag.
// Writes (the child's stderr pump) and Tail (the coordinator building a
// failure error) race, hence the lock.
type stderrTail struct {
	sink  io.Writer
	limit int

	mu      sync.Mutex
	buf     []byte
	clipped bool
}

func (t *stderrTail) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.limit {
		t.buf = t.buf[len(t.buf)-t.limit:]
		t.clipped = true
	}
	t.mu.Unlock()
	return t.sink.Write(p)
}

func (t *stderrTail) Tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clipped {
		return "…" + string(t.buf)
	}
	return string(t.buf)
}

// Start implements Executor.
func (e Subprocess) Start(ctx context.Context, id int) (*WorkerConn, error) {
	path := e.Path
	if path == "" {
		p, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("distsweep: resolve worker binary: %w", err)
		}
		path = p
	}
	cmd := exec.CommandContext(ctx, path, e.Args...)
	if e.Env != nil {
		cmd.Env = e.Env
	}
	sink := e.Stderr
	if sink == nil {
		sink = os.Stderr
	}
	limit := e.TailBytes
	if limit <= 0 {
		limit = 4096
	}
	tail := &stderrTail{sink: sink, limit: limit}
	cmd.Stderr = tail
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("distsweep: worker %d stdin: %w", id, err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("distsweep: worker %d stdout: %w", id, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("distsweep: start worker %d (%s): %w", id, path, err)
	}
	return &WorkerConn{
		In:  in,
		Out: out,
		// Drain leftover stdout while reaping: a child with pending
		// output (records the coordinator stopped reading) would
		// otherwise block on the full pipe and never exit, deadlocking
		// Wait against it.
		Wait: func() error {
			go io.Copy(io.Discard, out)
			return cmd.Wait()
		},
		Kill: func() error {
			in.Close()
			cmd.Process.Kill()
			return cmd.Wait()
		},
		Diag: tail.Tail,
	}, nil
}

// InProcess runs each worker as a goroutine inside the coordinator's
// process, wired through in-memory pipes — the full protocol, JSON
// framing included, without subprocess overhead. It is the façade's
// default executor and the parity tests' in-process half.
type InProcess struct {
	// Opts configures every worker's ServeWorker loop.
	Opts WorkerOptions
}

// Start implements Executor.
func (e InProcess) Start(ctx context.Context, id int) (*WorkerConn, error) {
	specR, specW := io.Pipe()
	recR, recW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := ServeWorker(ctx, specR, recW, e.Opts)
		recW.CloseWithError(err) // nil propagates as EOF
		specR.Close()
		done <- err
	}()
	return &WorkerConn{
		In:  specW,
		Out: recR,
		// Closing the record reader first unwedges a worker blocked
		// writing to a no-longer-read stream (its writes start failing,
		// the shard fails, ServeWorker returns), so Wait cannot deadlock
		// against an abandoned mid-shard worker.
		Wait: func() error {
			recR.Close()
			return <-done
		},
	}, nil
}
