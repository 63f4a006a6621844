// Attack study: run the private-mining (deep-fork) adversary on both
// sides of the neat bound and watch consistency break below it and hold
// above it — the empirical content of Figure 1's vertical axis.
package main

import (
	"context"
	"fmt"
	"log"

	"neatbound"
)

func runOnce(nu, c float64, tee int) (*neatbound.RunReport, error) {
	pr, err := neatbound.ParamsFromC(40, 8, nu, c)
	if err != nil {
		return nil, err
	}
	return neatbound.Run(context.Background(), pr,
		neatbound.WithRounds(40000),
		neatbound.WithSeed(7),
		neatbound.WithAdversary(neatbound.NewPrivateMiningAdversary(4)),
		neatbound.WithConsistency(tee, 0),
	)
}

func main() {
	const nu = 0.45
	bound, err := neatbound.NeatBoundC(nu)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ν = %.2f: neat bound is c > %.3f\n\n", nu, bound)

	for _, cse := range []struct {
		label string
		c     float64
	}{
		{"far below the bound", 0.6},
		{"just below the bound", bound * 0.8},
		{"above the bound", 25},
	} {
		rep, err := runOnce(nu, cse.c, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s c=%-6.3g violations(T=3)=%-5d margin(C−A)=%-7d deepest fork=%d\n",
			cse.label, cse.c, rep.Violations, rep.Ledger.Margin(), rep.MaxForkDepth)
	}

	fmt.Println("\nthe Lemma-1 margin flips sign around the bound: when convergence")
	fmt.Println("opportunities outnumber adversarial blocks, deep forks can't survive.")
	fmt.Println("(At ν=0.45, occasional depth-4 forks persist even above the bound —")
	fmt.Println("consistency is an exponential-in-T statement and (ν/µ)⁴ ≈ 0.45 here;")
	fmt.Println("at larger T the violation count vanishes, as the sweep below shows.)")

	// Same attack, larger chop: above the bound the violation count
	// must drop to zero once T outruns (ν/µ)^T.
	fmt.Println("\nabove the bound, scaling the chop parameter T:")
	for _, tee := range []int{3, 8, 16} {
		rep, err := runOnce(nu, 25, tee)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  T=%-3d violations=%d\n", tee, rep.Violations)
	}
}
