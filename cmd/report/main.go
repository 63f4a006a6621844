// Command report runs the full experiment suite — the paper artifacts
// (Figure 1, Table I, Figure 2, Remark 1) and the simulation validations
// S1–S7 — and emits a markdown report with measured-vs-predicted numbers
// (the sections internal/report renders).
//
// Usage:
//
//	report [-quick] [-o report.md] [-rounds N] [-replicates K]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"neatbound"
	"neatbound/internal/engine"
	"neatbound/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use the fast smoke-sized configuration")
	out := fs.String("o", "", "output file (default stdout)")
	rounds := fs.Int("rounds", 0, "override base simulation rounds")
	replicates := fs.Int("replicates", 0, "override sweep replicates")
	seed := fs.Uint64("seed", 1, "random seed")
	workers := fs.Int("workers", 4, "sweep parallelism")
	advName := fs.String("adversary", "private",
		"S4 attack strategy: "+strings.Join(neatbound.AdversaryNames(), "|"))
	forkDepth := fs.Int("fork-depth", 4, "private adversary's target fork depth")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate the name once; the per-cell factory below cannot fail.
	probe, err := neatbound.NewAdversaryByName(*advName, neatbound.AdversaryOpts{ForkDepth: *forkDepth})
	if err != nil {
		return err
	}
	cfg := report.DefaultConfig
	if *quick {
		cfg = report.QuickConfig
	}
	if *rounds > 0 {
		cfg.Rounds = *rounds
	}
	if *replicates > 0 {
		cfg.Replicates = *replicates
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.AdversaryName = probe.Name()
	name, opts := *advName, neatbound.AdversaryOpts{ForkDepth: *forkDepth}
	cfg.NewAdversary = func() engine.Adversary {
		adv, err := neatbound.NewAdversaryByName(name, opts)
		if err != nil {
			panic(err) // unreachable: validated above
		}
		return adv
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return report.Generate(w, cfg)
}
