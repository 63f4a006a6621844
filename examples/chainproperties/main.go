// Chain-properties study: chain growth and chain quality — the two
// related-work properties the paper surveys in Section II — measured
// against their classical analytic floors under every adversary in the
// repository, plus the confirmation-depth guidance the race analysis
// yields.
package main

import (
	"context"
	"fmt"
	"log"

	"neatbound"
)

func main() {
	pr, err := neatbound.ParamsFromC(40, 4, 0.4, 3)
	if err != nil {
		log.Fatal(err)
	}
	gamma, err := neatbound.PredictedGrowthRate(pr)
	if err != nil {
		log.Fatal(err)
	}
	floor, err := neatbound.PredictedQualityLowerBound(pr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n=%d Δ=%d ν=%g c=%g\n", pr.N, pr.Delta, pr.Nu, 3.0)
	fmt.Printf("analytic floors: growth γ = α/(1+Δα) = %.5f, quality ≥ 1−β/γ = %.3f\n\n",
		gamma, floor)

	fmt.Printf("%-14s %-22s %-20s %s\n", "adversary", "growth (blocks/round)", "quality (µ=0.6 fair)", "main-chain share")
	for _, tc := range []struct {
		name string
		adv  neatbound.Adversary
	}{
		{"passive", neatbound.NewPassiveAdversary()},
		{"max-delay", neatbound.NewMaxDelayAdversary()},
		{"selfish", neatbound.NewSelfishAdversary()},
		{"balance", neatbound.NewBalanceAdversary()},
	} {
		rep, err := neatbound.Run(context.Background(), pr,
			neatbound.WithRounds(60000), neatbound.WithSeed(5),
			neatbound.WithConsistency(8, 0), neatbound.WithAdversary(tc.adv))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %-22.5f %-20.3f %.3f\n",
			tc.name, rep.ChainGrowthRate, rep.ChainQuality, rep.MainChainShare)
	}

	fmt.Println("\nconfirmation depths from the race analysis (fork tail (ν/µ)^T):")
	for _, nu := range []float64{0.1, 0.25, 0.4} {
		t3, err := neatbound.ConfirmationsForRisk(nu, 1e-3)
		if err != nil {
			log.Fatal(err)
		}
		t6, err := neatbound.ConfirmationsForRisk(nu, 1e-6)
		if err != nil {
			log.Fatal(err)
		}
		ds, err := neatbound.DoubleSpendProbability(nu, 6)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  ν=%.2f: T(risk 1e-3)=%d, T(risk 1e-6)=%d, P[double spend | 6 conf] = %.2e\n",
			nu, t3, t6, ds)
	}
}
