// Command benchjson runs the engine's hot-path benchmark — the same
// mid-size configuration as BenchmarkSimulationRound — and records the
// result in BENCH_engine.json, so the simulation throughput trajectory
// (rounds/s, ns/round, allocs/round) is tracked across PRs.
//
// Each run appends one labeled entry:
//
//	go run ./cmd/benchjson -label flat-arena -out BENCH_engine.json
//
// Labels are append-only, as under `make bench`: a label already in the
// file is refused before anything is measured, so the measured
// trajectory is never rewritten. Pick a fresh label for a new
// measurement.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"neatbound"
	"neatbound/internal/params"
)

// entry is one labeled benchmark measurement.
type entry struct {
	Label string `json:"label"`
	Date  string `json:"date"`
	// EngineVersion stamps the engine-semantics version
	// (neatbound.EngineVersion) the measurement ran under, so entries are
	// only compared across identical simulation semantics.
	EngineVersion int `json:"engine_version"`
	// Configuration of the measured run. Shards is the engine's
	// delivery-phase parallelism (0/1 = serial); Cores records the
	// machine's CPU count (runtime.NumCPU()) and Procs the GOMAXPROCS
	// the run could actually use (what sizes the worker pool — it can
	// be lower than Cores under an explicit override or a container CPU
	// quota), both stamped automatically at measurement time — PR-2
	// hand-labeled the cores field and the entries from the 1-core
	// build box were flagged as misleading. Without an honest
	// parallelism record a serial-vs-sharded comparison is meaningless.
	N           int     `json:"n"`
	P           float64 `json:"p"`
	Delta       int     `json:"delta"`
	Nu          float64 `json:"nu"`
	RoundsPerOp int     `json:"rounds_per_op"`
	Iterations  int     `json:"iterations"`
	Shards      int     `json:"shards"`
	// FastForward records whether the run used the engine's event-driven
	// round skipping (bit-identical results; throughput-only knob).
	FastForward bool `json:"fast_forward,omitempty"`
	// CompactEvery/CheckerRetention record the arena-compaction knobs of
	// the measured run (0 = compaction off; bit-identical results,
	// memory-only knob).
	CompactEvery     int `json:"compact_every,omitempty"`
	CheckerRetention int `json:"checker_retention,omitempty"`
	// Scenario records the scenario-layer argument of the measured run
	// (preset name or inline JSON, docs/scenarios.md; "" = default
	// model). Unlike the knobs above it changes simulation semantics, so
	// scenario entries are only comparable to entries with the same
	// scenario.
	Scenario string `json:"scenario,omitempty"`
	Cores    int    `json:"cores"`
	Procs    int    `json:"gomaxprocs,omitempty"`
	// Results, normalized per simulated round.
	RoundsPerSec   float64 `json:"rounds_per_sec"`
	NsPerRound     float64 `json:"ns_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	BytesPerRound  float64 `json:"bytes_per_round"`
	// HeapPeakBytes is the highest HeapAlloc a 1 ms background sampler
	// observed across the timed runs — the resident-memory story the
	// per-round allocation rate cannot tell (a run can allocate little
	// per round yet hold every block ever mined live). LiveBlocks is the
	// final run's resident arena block count vs TotalBlocks ever mined.
	HeapPeakBytes uint64 `json:"heap_peak_bytes,omitempty"`
	LiveBlocks    int    `json:"live_blocks,omitempty"`
	TotalBlocks   int    `json:"total_blocks,omitempty"`
}

// file is the on-disk BENCH_engine.json layout.
type file struct {
	Benchmark string  `json:"benchmark"`
	Entries   []entry `json:"entries"`
}

func main() {
	var (
		label   = flag.String("label", "current", "entry label (must not exist in -out yet)")
		out     = flag.String("out", "BENCH_engine.json", "output JSON path")
		n       = flag.Int("n", 1000, "players")
		p       = flag.Float64("p", 1e-4, "per-query success probability")
		delta   = flag.Int("delta", 8, "network delay bound Δ")
		nu      = flag.Float64("nu", 0.3, "adversarial fraction ν")
		rounds  = flag.Int("rounds", 1000, "rounds per simulation op")
		iters   = flag.Int("iters", 30, "simulation ops to average over")
		shards  = flag.Int("shards", 0, "engine delivery shards (0 = serial)")
		ff      = flag.Bool("fast-forward", false, "enable event-driven round skipping")
		compact = flag.Int("compact-every", 0, "arena compaction interval in rounds (0 = off)")
		retain  = flag.Int("checker-retention", 0, "checker snapshot retention window (0 = full history)")
		scn     = flag.String("scenario", "", "scenario preset name or inline JSON spec (docs/scenarios.md; empty = default model)")
	)
	flag.Parse()

	f := file{Benchmark: "BenchmarkSimulationRound"}
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			fatal(fmt.Errorf("benchjson: existing %s is not valid: %w", *out, err))
		}
	}
	for _, old := range f.Entries {
		if old.Label == *label {
			fatal(fmt.Errorf("benchjson: label %q already exists in %s — labels are append-only, pick a fresh one", *label, *out))
		}
	}

	pr, err := neatbound.NewParams(*n, *p, *delta, *nu)
	if err != nil {
		fatal(err)
	}
	spec, err := neatbound.ParseScenario(*scn)
	if err != nil {
		fatal(err)
	}
	e, err := measure(pr, *rounds, *iters, *shards, *ff, *compact, *retain, spec)
	if err != nil {
		fatal(err)
	}
	e.Scenario = *scn
	e.Label = *label
	e.Date = time.Now().UTC().Format("2006-01-02")
	f.Entries = append(f.Entries, e)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %s  %.0f rounds/s  %.0f ns/round  %.1f allocs/round  %.0f B/round  peak %.1f MiB  live %d/%d blocks\n",
		*out, e.Label, e.RoundsPerSec, e.NsPerRound, e.AllocsPerRound, e.BytesPerRound,
		float64(e.HeapPeakBytes)/(1<<20), e.LiveBlocks, e.TotalBlocks)
}

// measure times iters runs of a rounds-long simulation (the
// BenchmarkSimulationRound body) and reports per-round cost. Allocation
// counts come from runtime.MemStats deltas, matching -benchmem; peak
// heap comes from a background sampler running across the timed loop.
func measure(pr params.Params, rounds, iters, shards int, fastForward bool, compactEvery, retention int, scenario *neatbound.ScenarioSpec) (entry, error) {
	if iters < 1 || rounds < 1 {
		return entry{}, fmt.Errorf("benchjson: iters and rounds must be ≥ 1")
	}
	opts := []neatbound.Option{
		neatbound.WithRounds(rounds),
		neatbound.WithConsistency(6, 0),
		neatbound.WithShards(shards),
		neatbound.WithCompaction(compactEvery, 0),
		neatbound.WithCheckerRetention(retention),
		neatbound.WithScenario(scenario),
	}
	if fastForward {
		opts = append(opts, neatbound.WithFastForward())
	}
	var rep *neatbound.RunReport
	run := func(seed uint64) error {
		var err error
		rep, err = neatbound.Run(context.Background(), pr,
			append([]neatbound.Option{neatbound.WithSeed(seed)}, opts...)...)
		return err
	}
	// Warm-up run, excluded from the measurement.
	if err := run(0); err != nil {
		return entry{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stopSampler := sampleHeapPeak()
	start := time.Now()
	for i := 1; i <= iters; i++ {
		if err := run(uint64(i)); err != nil {
			stopSampler()
			return entry{}, err
		}
	}
	elapsed := time.Since(start)
	heapPeak := stopSampler()
	runtime.ReadMemStats(&m1)

	total := float64(rounds) * float64(iters)
	return entry{
		EngineVersion: neatbound.EngineVersion,
		N:             pr.N, P: pr.P, Delta: pr.Delta, Nu: pr.Nu,
		RoundsPerOp: rounds, Iterations: iters,
		Shards: shards, FastForward: fastForward,
		CompactEvery: compactEvery, CheckerRetention: retention,
		Cores: runtime.NumCPU(), Procs: runtime.GOMAXPROCS(0),
		RoundsPerSec:   total / elapsed.Seconds(),
		NsPerRound:     float64(elapsed.Nanoseconds()) / total,
		AllocsPerRound: float64(m1.Mallocs-m0.Mallocs) / total,
		BytesPerRound:  float64(m1.TotalAlloc-m0.TotalAlloc) / total,
		HeapPeakBytes:  heapPeak,
		LiveBlocks:     rep.LiveBlocks,
		TotalBlocks:    rep.TotalBlocks,
	}, nil
}

// sampleHeapPeak starts a background goroutine polling HeapAlloc every
// millisecond and returns a stop function yielding the maximum
// observed. Sampling can only undershoot the true peak (it misses
// allocations freed between polls), so the recorded number is a
// conservative floor on resident memory.
func sampleHeapPeak() func() uint64 {
	stop := make(chan struct{})
	done := make(chan uint64, 1)
	go func() {
		var m runtime.MemStats
		var peak uint64
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
				done <- peak
				return
			case <-ticker.C:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
