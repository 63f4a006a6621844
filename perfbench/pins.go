package main

import (
	"fmt"
	"io"
	"sort"
)

// pinFor returns the pinned digest of one job: the workload (or
// "sweepd-mix-cell", the traced sweepd-mix cell), the size, and the
// seed. The table is generated by --print-pins and must only change
// with a deliberate change of simulation semantics.
func pinFor(size, table string, seed uint64) (digest, bool) {
	d, ok := pins[size][table][seed]
	return d, ok
}

// pinTables lists the configurations that have pins, with their spec.
func pinTables(size string) map[string]*simSpec {
	ws := workloads(size)
	out := map[string]*simSpec{"sweepd-mix-cell": &ws["sweepd-mix"].sweep.Cell}
	for name, w := range ws {
		if w.sim != nil {
			out[name] = w.sim
		}
	}
	return out
}

// printPinTable runs every pinned job once and prints the table as Go
// source for pins_table.go.
func printPinTable(w io.Writer, size string) error {
	tables := pinTables(size)
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "\t%q: {\n", size)
	for _, name := range names {
		s := tables[name]
		fmt.Fprintf(w, "\t\t%q: {\n", name)
		for _, seed := range s.Seeds {
			j, err := runSimJob(s, s.Rounds, seed)
			if err != nil {
				return err
			}
			d := j.digest
			fmt.Fprintf(w, "\t\t\t%d: {Hash: %#x, Honest: %d, Adversary: %d},\n", seed, d.Hash, d.Honest, d.Adversary)
		}
		fmt.Fprintf(w, "\t\t},\n")
	}
	fmt.Fprintf(w, "\t},\n")
	return nil
}
