// Command perfbench is the repository's benchmark. It runs one named
// workload per process and prints every metric by name and unit, ending
// with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sim-step-n1e5 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is the timed pass and reports the end-to-end
// metrics; with --trace 1 it is the traced pass and reports per-layer
// metrics. The workloads, metrics and how to read them are described in
// README.md next to this file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations (jobs, set-ups, lookups) and their failures.
// An operation that errors or whose output does not match its expected
// value is a failure; it is never dropped from the count.
type tally struct {
	attempted, failed int
	log               io.Writer
}

// op records one operation; err == nil means it succeeded.
func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: FAILED: %v\n", err)
		return false
	}
	return true
}

// config is one invocation's settings.
type config struct {
	seed   uint64
	budget time.Duration
	trace  bool
	size   string
	// corruptPin flips one pinned hash, so the smoke test can check that
	// a wrong expected value is reported as a failed operation.
	corruptPin bool
	// scratch is where stores and logs are written; removed at exit.
	scratch string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name, or all ("+strings.Join(workloadNames(), ", ")+")")
	seed := fs.Uint64("seed", 1, "workload seed: rotates the fixed seed list (sims) or turn order (sweepd-mix)")
	seconds := fs.Float64("seconds", 20, "work scale: job counts are fixed per second of budget")
	trace := fs.Int("trace", 0, "0 = timed pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	size := fs.String("size", "full", "full, or tiny for the smoke test")
	corrupt := fs.Bool("corrupt-pin", false, "flip one pinned hash (tests the failure path)")
	printPins := fs.Bool("print-pins", false, "print the pinned digests of every sim workload and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if *size != "full" && *size != "tiny" {
		fmt.Fprintln(stderr, "perfbench: --size must be full or tiny")
		return 2
	}
	// One process per workload, using every core the process may run on.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *printPins {
		if err := printPinTable(stdout, *size); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloads(*size)[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratchRoot := cwd + "/.bench_build"
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	cfg := config{
		seed:       *seed,
		budget:     time.Duration(*seconds * float64(time.Second)),
		trace:      *trace == 1,
		size:       *size,
		corruptPin: *corrupt,
		scratch:    scratch,
	}
	t := &tally{log: stderr}
	steal0 := readSteal()
	var ms map[string]metric
	switch {
	case w.sim != nil && cfg.trace:
		ms = traceSim(w, cfg, t)
	case w.sim != nil:
		ms = timeSim(w, cfg, t)
	case cfg.trace:
		ms = traceSweepd(w, cfg, t)
	default:
		ms = timeSweepd(w, cfg, t)
	}
	steal := stealFrac(steal0, readSteal())
	if cfg.trace {
		ms["host.steal_frac"] = metric{steal, "frac"}
	}
	if t.attempted == 0 {
		t.op(errors.New("no operation ran"))
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}
	fmt.Fprintf(stdout, "# perfbench workload=%s size=%s seed=%d trace=%d cores=%d gomaxprocs=%d go=%s steal_frac=%.4f\n",
		w.name, cfg.size, cfg.seed, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal)
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult writes one "name value unit" line per metric, then the
// JSON result line.
func printResult(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only reachable when every sample failed, which the
			// failure count already reports.
			m.Value = 0
			res.Metrics[name] = m
		}
		fmt.Fprintf(w, "%-36s %14s %s\n", name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	line, _ := json.Marshal(res) // cannot fail: plain structs, finite floats
	fmt.Fprintf(w, "%s\n", line)
}

// runAll runs every workload in its own child process with the same
// flags, passes their output through, and ends with a combined result
// whose metric names are prefixed "<workload>:".
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--workload" || a == "-workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload=") {
			continue
		}
		rest = append(rest, a)
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames() {
		var out bytes.Buffer
		cmd := exec.Command(exe, append([]string{"--workload", name}, rest...)...)
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		last := lastLine(out.Bytes())
		var res result
		if err := json.Unmarshal(last, &res); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s printed no result (%v, exit: %v)\n", name, err, runErr)
			total.Correct = false
			total.Attempted++
			total.Failed++
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[name+":"+k] = m
		}
	}
	line, _ := json.Marshal(total)
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
