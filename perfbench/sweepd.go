package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"neatbound"
	"neatbound/internal/distsweep"
	"neatbound/internal/store"
	"neatbound/internal/sweepsvc"
)

// options is the sweep option set of a job at a seed.
func (s sweepSpec) options(seed uint64) []neatbound.Option {
	return []neatbound.Option{
		neatbound.WithRounds(s.Rounds),
		neatbound.WithSeed(seed),
		neatbound.WithConsistency(s.T, 0),
		neatbound.WithReplicates(s.Replicates),
		neatbound.WithAdversaryName(s.Adversary, neatbound.AdversaryOpts{ForkDepth: s.ForkDepth}),
	}
}

// extended returns the grid with one more ν row appended: the first
// len(NuValues)·len(CValues) cells keep their indices, and so their
// seeds and store keys.
func (s sweepSpec) extended(nu float64) neatbound.SweepGrid {
	g := s.Grid
	g.NuValues = append(append([]float64(nil), g.NuValues...), nu)
	return g
}

func (s sweepSpec) cells() int { return len(s.Grid.NuValues) * len(s.Grid.CValues) }

// cellRounds is the number of simulated rounds behind one grid.
func (s sweepSpec) cellRounds() float64 {
	return float64(s.cells() * s.Replicates * s.Rounds)
}

// facade runs a cold single-process RunSweep and returns its
// interchange bytes.
func (s sweepSpec) facade(grid neatbound.SweepGrid, seed uint64) ([]byte, time.Duration, error) {
	start := time.Now()
	cells, err := neatbound.RunSweep(context.Background(), grid, s.options(seed)...)
	d := time.Since(start)
	if err != nil {
		return nil, d, fmt.Errorf("RunSweep: %w", err)
	}
	var buf bytes.Buffer
	if err := neatbound.MarshalCells(&buf, cells); err != nil {
		return nil, d, err
	}
	return buf.Bytes(), d, nil
}

// service is a sweepsvc.Service over a store in a scratch directory,
// with in-process workers, served on a loopback listener to one
// SweepClient that holds a single connection.
type service struct {
	dir    string
	st     *store.Store
	svc    *sweepsvc.Service
	srv    *http.Server
	served chan error
	client *neatbound.SweepClient
	tr     *http.Transport
}

func startService(dir string) (*service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	svc, err := sweepsvc.New(sweepsvc.Options{Store: st, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		st.Close()
		return nil, err
	}
	s := &service{dir: dir, st: st, svc: svc, served: make(chan error, 1)}
	s.srv = &http.Server{Handler: svc.Handler()}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	s.client = neatbound.NewSweepClient("http://"+ln.Addr().String(), &http.Client{Transport: s.tr})
	return s, nil
}

// close stops the server (waiting for Serve to return), the service and
// the store.
func (s *service) close() error {
	s.tr.CloseIdleConnections()
	err := s.srv.Shutdown(context.Background())
	if serveErr := <-s.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	s.svc.Close()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// httpJob submits a job through the client, follows its SSE stream to
// the end, and fetches the result bytes.
func (s *service) httpJob(spec sweepSpec, grid neatbound.SweepGrid, seed uint64) ([]byte, neatbound.SweepJobStatus, time.Duration, error) {
	ctx := context.Background()
	start := time.Now()
	st, err := s.client.Submit(ctx, grid, spec.options(seed)...)
	if err != nil {
		return nil, st, 0, err
	}
	var last neatbound.SweepJobStatus
	if err := s.client.Stream(ctx, st.ID, func(ev neatbound.SweepJobEvent) error {
		last = ev.Status
		return nil
	}); err != nil {
		return nil, last, 0, err
	}
	if last.State != neatbound.SweepJobDone {
		return nil, last, 0, fmt.Errorf("job %s ended %s: %s", st.ID, last.State, last.Error)
	}
	raw, err := s.client.ResultRaw(ctx, st.ID)
	return raw, last, time.Since(start), err
}

// localJob is httpJob without HTTP: Submit, Watch and Result on the
// service directly.
func (s *service) localJob(spec sweepSpec, grid neatbound.SweepGrid, seed uint64) ([]byte, sweepsvc.JobStatus, time.Duration, error) {
	req, err := neatbound.SweepRequest(grid, spec.options(seed)...)
	if err != nil {
		return nil, sweepsvc.JobStatus{}, 0, err
	}
	start := time.Now()
	st, err := s.svc.Submit(req)
	if err != nil {
		return nil, st, 0, err
	}
	var last sweepsvc.JobStatus
	if err := s.svc.Watch(context.Background(), st.ID, func(ev sweepsvc.Event) error {
		last = ev.Status
		return nil
	}); err != nil {
		return nil, last, 0, err
	}
	if last.State != sweepsvc.StateDone {
		return nil, last, 0, fmt.Errorf("job %s ended %s: %s", st.ID, last.State, last.Error)
	}
	raw, err := s.svc.Result(st.ID)
	return raw, last, time.Since(start), err
}

// expectCells checks a job's cell provenance.
func expectCells(st neatbound.SweepJobStatus, cached, computed int) error {
	if st.CellsCached != cached || st.CellsComputed != computed || st.CellsCoalesced != 0 {
		return fmt.Errorf("job %s: %d cached, %d computed, %d coalesced; want %d cached, %d computed",
			st.ID, st.CellsCached, st.CellsComputed, st.CellsCoalesced, cached, computed)
	}
	return nil
}

// samePrefix checks that the first n result lines of got are
// byte-identical to the first n of want.
func samePrefix(got, want []byte, n int) error {
	g := bytes.SplitAfter(got, []byte("\n"))
	w := bytes.SplitAfter(want, []byte("\n"))
	if len(g) < n || len(w) < n {
		return fmt.Errorf("result has %d lines, reference %d, want at least %d", len(g), len(w), n)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Errorf("result line %d differs from the cold job's", i+1)
		}
	}
	return nil
}

// timeSweepd is the timed pass of sweepd-mix: cold service jobs, cached
// resubmissions and extend jobs, in turns.
func timeSweepd(w *workload, cfg config, t *tally) map[string]metric {
	s := w.sweep
	n := s.cells()

	// The façade sweep of the reference grid: the bytes that the warm-up
	// cold job and every cached job must reproduce.
	refRaw, _, err := s.facade(s.Grid, s.RefSeed)
	if !t.op(err) {
		return map[string]metric{}
	}
	svc, err := startService(filepath.Join(cfg.scratch, "store"))
	if !t.op(err) {
		return map[string]metric{}
	}
	// Warm-up cold job: computes the reference grid into the store.
	if raw, st, _, err := svc.httpJob(s, s.Grid, s.RefSeed); t.op(err) {
		if err = expectCells(st, 0, n); err == nil {
			err = compareBytes(raw, refRaw, "cold service job vs façade RunSweep")
		}
		t.op(err)
	}

	// The phases take turns, one turn per TurnSeconds of --seconds, so
	// each phase's samples spread over the whole run rather than one
	// stretch of it. Every run does the same turns; --seed only rotates
	// which turn comes first.
	turns := max(1, int(math.Round(cfg.budget.Seconds()/s.TurnSeconds)))
	nCached := max(1, int(math.Round(cfg.budget.Seconds()*s.CachedPerSecond))/turns)
	order := make([]uint64, turns)
	for q := range order {
		order[q] = uint64(q)
	}
	var coldRates, cachedMS []float64
	var cpu time.Duration
	var alloc uint64
	computed := 0 // cells the timed jobs computed
	// job runs one service job from a collected heap, so that no job
	// pays the collection debt of the jobs before it, and adds its CPU
	// time and allocation to the totals.
	job := func(grid neatbound.SweepGrid, seed uint64) ([]byte, neatbound.SweepJobStatus, time.Duration, error) {
		runtime.GC()
		cpu0, alloc0 := cpuTime(), readRuntime().allocBytes
		raw, st, d, err := svc.httpJob(s, grid, seed)
		cpu += cpuTime() - cpu0
		alloc += readRuntime().allocBytes - alloc0
		return raw, st, d, err
	}
	for _, q := range rotation(order, cfg.seed) {
		// Cold jobs at the turn's fresh seeds: every cell computed and
		// written to the store.
		var firstCold []byte
		for i := 0; i < s.ColdJobs; i++ {
			raw, st, d, err := job(s.Grid, s.RefSeed+1+q*uint64(s.ColdJobs)+uint64(i))
			if err == nil {
				err = expectCells(st, 0, n)
			}
			if i == 0 {
				firstCold = raw
			}
			if t.op(err) {
				computed += n
				coldRates = append(coldRates, s.cellRounds()/d.Seconds())
			}
		}

		// A closed loop of identical resubmissions of the reference grid:
		// every cell a store read.
		for i := 0; i < nCached; i++ {
			raw, st, d, err := job(s.Grid, s.RefSeed)
			if err == nil {
				err = expectCells(st, n, 0)
			}
			if err == nil {
				err = compareBytes(raw, refRaw, "cached job vs cold job and façade")
			}
			if t.op(err) {
				cachedMS = append(cachedMS, float64(d)/1e6)
			}
		}

		// Extend jobs over the turn's first cold grid, each adding one new
		// ν row: the grid's cells are hits, the new row misses.
		seed := s.RefSeed + 1 + q*uint64(s.ColdJobs)
		for _, nu := range s.ExtendNu {
			raw, st, _, err := job(s.extended(nu), seed)
			if err == nil {
				err = expectCells(st, n, len(s.Grid.CValues))
			}
			if err == nil {
				err = samePrefix(raw, firstCold, n)
			}
			if t.op(err) {
				computed += len(s.Grid.CValues)
			}
		}
	}
	t.op(svc.close())

	// setup_s: open the store the run filled (replaying its whole log)
	// and build a service over it. Every sample replays the same copy,
	// from a collected heap.
	snapshot := filepath.Join(cfg.scratch, "snapshot")
	var setup []float64
	if t.op(copyDir(svc.dir, snapshot)) {
		for i := 0; i < s.SetupReps; i++ {
			runtime.GC()
			start := time.Now()
			st, err := store.Open(snapshot)
			if !t.op(err) {
				continue
			}
			sv, err := sweepsvc.New(sweepsvc.Options{Store: st, Workers: runtime.GOMAXPROCS(0)})
			d := time.Since(start)
			if t.op(err) {
				setup = append(setup, d.Seconds())
				sv.Close()
			}
			t.op(st.Close())
		}
	}

	fmt.Fprintf(t.log, "perfbench: sweepd-mix: %d cold, %d cached and %d extend jobs, %d set-ups\n",
		len(coldRates), len(cachedMS), turns*len(s.ExtendNu), len(setup))
	rounds := max(float64(computed*s.Replicates*s.Rounds), 1)
	return map[string]metric{
		"rounds_per_s":          {median(coldRates), "1/s"},
		"cpu_us_per_round":      {float64(cpu) / 1e3 / rounds, "us"},
		"alloc_bytes_per_round": {float64(alloc) / rounds, "B"},
		"peak_rss_mib":          {peakRSSMiB(), "MiB"},
		"setup_s":               {median(setup), "s"},
		"result_ms_p50":         {quantile(cachedMS, 0.5), "ms"},
		"result_ms_p90":         {quantile(cachedMS, 0.9), "ms"},
	}
}

// copyDir copies the regular files of directory src into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func compareBytes(got, want []byte, what string) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: results are not byte-identical (%d vs %d bytes)", what, len(got), len(want))
	}
	return nil
}

// traceSweepd is the traced pass of sweepd-mix: the engine layers of one
// grid cell (private adversary at n = 40), then the sweep-side layers.
func traceSweepd(w *workload, cfg config, t *tally) map[string]metric {
	ms := engineLayers(&w.sweep.Cell, "sweepd-mix-cell", cfg, t)
	for k, v := range sweepLayers(w.sweep, cfg, t) {
		ms[k] = v
	}
	return ms
}

// sweepLayers times the layers under a sweepd job one by one: the
// façade sweep, the distributed coordinator, the cell wire format, the
// store, and the service with and without HTTP.
func sweepLayers(s sweepSpec, cfg config, t *tally) map[string]metric {
	n := s.cells()
	seed := s.RefSeed
	ms := map[string]metric{}

	// sweep: the no-coordinator baseline.
	facadeRaw, facadeDur, err := s.facade(s.Grid, seed)
	if !t.op(err) {
		return ms
	}
	cells, err := neatbound.UnmarshalCells(bytes.NewReader(facadeRaw))
	if !t.op(err) {
		return ms
	}
	// distsweep: the coordinator over in-process workers, same grid.
	req, err := neatbound.SweepRequest(s.Grid, s.options(seed)...)
	if !t.op(err) {
		return ms
	}
	retries := 0
	start := time.Now()
	dcells, err := distsweep.Run(context.Background(), req.Sweep(), distsweep.Options{
		Workers:    runtime.GOMAXPROCS(0),
		OnProgress: func(p distsweep.Progress) { retries = p.Retries },
	})
	distDur := time.Since(start)
	if t.op(err) {
		var buf bytes.Buffer
		if t.op(neatbound.MarshalCells(&buf, dcells)) {
			t.op(compareBytes(buf.Bytes(), facadeRaw, "distsweep.Run vs façade RunSweep"))
		}
	}

	// Wire format.
	var buf bytes.Buffer
	var marshal, unmarshal time.Duration
	for i := 0; i < s.TraceReps; i++ {
		buf.Reset()
		start := time.Now()
		err := neatbound.MarshalCells(&buf, cells)
		marshal += time.Since(start)
		if err == nil {
			start = time.Now()
			_, err = neatbound.UnmarshalCells(bytes.NewReader(buf.Bytes()))
			unmarshal += time.Since(start)
		}
		if err == nil && !bytes.Equal(buf.Bytes(), facadeRaw) {
			err = errors.New("marshal round trip is not byte-identical")
		}
		t.op(err)
	}

	// store: fsynced puts, checksummed gets, and the log replay of Open.
	dir := filepath.Join(cfg.scratch, "layer-store")
	keys := sweepsvc.CellKeys(req.Sweep())
	var putMS, getUS, openMS []float64
	if st, err := store.Open(dir); t.op(err) {
		for i, c := range cells {
			start := time.Now()
			if t.op(st.Put(keys[i], c)) {
				putMS = append(putMS, float64(time.Since(start))/1e6)
			}
		}
		for r := 0; r < s.TraceReps; r++ {
			for i, k := range keys {
				start := time.Now()
				c, ok, err := st.Get(k)
				d := time.Since(start)
				if err == nil && (!ok || c.Nu != cells[i].Nu || c.C != cells[i].C) {
					err = fmt.Errorf("store get %s: wrong or missing cell", k)
				}
				if t.op(err) {
					getUS = append(getUS, float64(d)/1e3)
				}
			}
		}
		t.op(st.Close())
		for r := 0; r < 5; r++ {
			start := time.Now()
			st, err := store.Open(dir)
			d := time.Since(start)
			if t.op(err) {
				openMS = append(openMS, float64(d)/1e6)
				t.op(st.Close())
			}
		}
	}

	// sweepsvc: cached jobs in process and over HTTP, then an extend job.
	var localMS, httpMS []float64
	var extendDur time.Duration
	hitRatio := 0.0
	if svc, err := startService(filepath.Join(cfg.scratch, "layer-svc")); t.op(err) {
		raw, st, _, err := svc.localJob(s, s.Grid, seed)
		if err == nil {
			err = expectCells(st, 0, n)
		}
		if err == nil {
			err = compareBytes(raw, facadeRaw, "service cold job vs façade RunSweep")
		}
		t.op(err)
		for r := 0; r < s.TraceReps; r++ {
			raw, st, d, err := svc.localJob(s, s.Grid, seed)
			if err == nil {
				err = expectCells(st, n, 0)
			}
			if err == nil {
				err = compareBytes(raw, facadeRaw, "in-process cached job vs façade RunSweep")
			}
			if t.op(err) {
				localMS = append(localMS, float64(d)/1e6)
			}
			raw, hst, d, err := svc.httpJob(s, s.Grid, seed)
			if err == nil {
				err = expectCells(hst, n, 0)
			}
			if err == nil {
				err = compareBytes(raw, facadeRaw, "HTTP cached job vs façade RunSweep")
			}
			if t.op(err) {
				httpMS = append(httpMS, float64(d)/1e6)
			}
		}
		ext := s.extended(s.ExtendNu[0])
		raw, st, extendDur, err = svc.localJob(s, ext, seed)
		if err == nil {
			hitRatio = float64(st.CellsCached) / float64(st.CellsTotal)
			var want []byte
			if want, _, err = s.facade(ext, seed); err == nil {
				err = compareBytes(raw, want, "extend job vs façade RunSweep")
			}
		}
		t.op(err)
		t.op(svc.close())
	}

	facadeS := facadeDur.Seconds()
	ms["sweep.rungrid_s"] = metric{facadeS, "s"}
	ms["sweep.marshal_us_per_cell"] = metric{float64(marshal) / 1e3 / float64(max(s.TraceReps*n, 1)), "us"}
	ms["sweep.unmarshal_us_per_cell"] = metric{float64(unmarshal) / 1e3 / float64(max(s.TraceReps*n, 1)), "us"}
	ms["distsweep.overhead_frac"] = metric{(distDur.Seconds() - facadeS) / facadeS, "frac"}
	ms["distsweep.retries"] = metric{float64(retries), "count"}
	ms["store.put_ms_p50"] = metric{median(putMS), "ms"}
	ms["store.get_us_p50"] = metric{median(getUS), "us"}
	ms["store.open_ms"] = metric{median(openMS), "ms"}
	ms["sweepsvc.cached_job_ms_p50"] = metric{median(localMS), "ms"}
	ms["http.overhead_ms"] = metric{median(httpMS) - median(localMS), "ms"}
	ms["sweepsvc.hit_ratio"] = metric{hitRatio, "frac"}
	ms["sweepsvc.extend_job_s"] = metric{extendDur.Seconds(), "s"}
	return ms
}
