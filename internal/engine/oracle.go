package engine

import (
	"fmt"

	"neatbound/internal/blockchain"
	"neatbound/internal/mining"
	"neatbound/internal/rng"
)

// This file provides the literal proof-of-work path: instead of sampling
// the per-round honest success set from binom(µn, p) (the statistical
// path of step()), each honest miner makes one real query to the keyed
// random function H of Section III with a fresh nonce, succeeding iff the
// hash meets the difficulty target D_p. The two paths are statistically
// identical (each query succeeds independently with probability p);
// TestOraclePathMatchesStatisticalPath cross-validates them, which is
// what licenses the binomial sampling as a substitute for literal hash
// queries everywhere else.

// oracleMiner holds the per-engine oracle state.
type oracleMiner struct {
	oracle *mining.Oracle
	nonces *rng.Stream
}

// newOracleMiner builds the oracle path for hardness p.
func newOracleMiner(p float64, key uint64, nonces *rng.Stream) (*oracleMiner, error) {
	o, err := mining.NewOracle(p, key)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return &oracleMiner{oracle: o, nonces: nonces}, nil
}

// mineRound performs one parallel query per honest miner against its own
// chain tip and returns the indices of the winners, sorted. Winners are
// appended to buf[:0] so the round loop can reuse one buffer.
func (m *oracleMiner) mineRound(tips []blockchain.BlockID, buf []int) []int {
	winners := buf[:0]
	for i, tip := range tips {
		nonce := m.nonces.Uint64()
		if _, ok := m.oracle.Query(tip, nonce, ""); ok {
			winners = append(winners, i)
		}
	}
	return winners
}

// WithOracleMining switches the engine's honest mining from binomial
// sampling to literal hash queries. Call before Run. The key seeds the
// shared random function H.
func (e *Engine) WithOracleMining(key uint64) error {
	if e.scenarioMining() {
		return fmt.Errorf("engine: oracle mining cannot be combined with Churn/MiningWeights")
	}
	om, err := newOracleMiner(e.pr.P, key, e.mineRg.Split(3))
	if err != nil {
		return err
	}
	e.oracle = om
	return nil
}

// UsesOracle reports whether the literal proof-of-work path is active.
func (e *Engine) UsesOracle() bool { return e.oracle != nil }
