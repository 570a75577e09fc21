package main

import (
	"fmt"
	"math"

	"indextune/internal/iset"
	"indextune/internal/schema"
	"indextune/internal/whatif"
	"indextune/internal/workload"
)

// outcome is what one tune or daemon job reported, in the form the checker
// needs. The checker trusts none of it: every property is recomputed from
// the workload and the recommended indexes.
type outcome struct {
	W            *workload.Workload
	Indexes      []schema.Index // the recommended configuration
	K, Budget    int
	StorageLimit int64 // 0 = unconstrained
	Calls        int   // charged what-if calls
	Refunded     int   // budget refunded by an early stop or a cancel
	Stopped      bool  // the run stopped early or was cancelled
	Improvement  float64
}

// improvementTol is the absolute tolerance, in percentage points, between a
// reported improvement and its recomputation. Both sum the same per-query
// costs in the same order, so they agree far more closely than this.
const improvementTol = 1e-6

// checkOutcome verifies the budget and constraint properties of one result
// and recomputes its improvement (Eq. 4) on a fresh oracle.
func checkOutcome(o outcome) error {
	if len(o.Indexes) > o.K {
		return fmt.Errorf("%d indexes recommended, K is %d", len(o.Indexes), o.K)
	}
	if o.StorageLimit > 0 {
		var size int64
		for _, ix := range o.Indexes {
			size += ix.SizeBytes(o.W.DB)
		}
		if size > o.StorageLimit {
			return fmt.Errorf("indexes take %d bytes, storage limit is %d", size, o.StorageLimit)
		}
	}
	if o.Calls < 0 || o.Calls > o.Budget {
		return fmt.Errorf("%d charged calls, budget is %d", o.Calls, o.Budget)
	}
	if o.Stopped && o.Calls+o.Refunded != o.Budget {
		return fmt.Errorf("stopped run: %d calls + %d refunded != budget %d", o.Calls, o.Refunded, o.Budget)
	}
	if !o.Stopped && o.Refunded != 0 {
		return fmt.Errorf("run that did not stop refunded %d", o.Refunded)
	}
	pct, err := recomputeImprovement(o.W, o.Indexes)
	if err != nil {
		return err
	}
	if math.Abs(pct-o.Improvement) > improvementTol {
		return fmt.Errorf("improvement %.9f%% reported, %.9f%% recomputed", o.Improvement, pct)
	}
	return nil
}

// recomputeImprovement costs the workload with and without the indexes on a
// fresh oracle that knows only those indexes: 100·(1 − Σ w·c(q,C) / Σ w·c(q,∅)).
// Each query must cost no more with the indexes than without.
func recomputeImprovement(w *workload.Workload, ixs []schema.Index) (float64, error) {
	opt := whatif.New(w.DB, ixs)
	all := iset.NewSet(len(ixs))
	for i := range ixs {
		all.Add(i)
	}
	base, tuned := 0.0, 0.0
	for _, q := range w.Queries {
		b := opt.PeekCost(q, iset.Set{})
		c := opt.PeekCost(q, all)
		if c > b {
			return 0, fmt.Errorf("query %s costs %g with the indexes, %g without", q.ID, c, b)
		}
		wt := q.EffectiveWeight()
		base += b * wt
		tuned += c * wt
	}
	if base <= 0 {
		return 0, fmt.Errorf("workload %s has no positive base cost", w.Name)
	}
	return 100 * (1 - tuned/base), nil
}

// checkReserves verifies that a complete trace holds one reserve event per
// charged call.
func checkReserves(reserves, calls int) error {
	if reserves != calls {
		return fmt.Errorf("trace has %d reserve events, the run charged %d calls", reserves, calls)
	}
	return nil
}

// checkPhaseSpend verifies that a trace summary's spend by phase sums to the
// charged calls.
func checkPhaseSpend(spendByPhase map[string]int, calls int) error {
	t := 0
	for _, v := range spendByPhase {
		t += v
	}
	if t != calls {
		return fmt.Errorf("spend_by_phase sums to %d, the run charged %d calls", t, calls)
	}
	return nil
}

// checkWarmCold verifies that a tune on a warm shared oracle chose the same
// configuration and charged the same calls as the same spec on a fresh one.
func checkWarmCold(warmCfg, coldCfg string, warmCalls, coldCalls int) error {
	if warmCfg != coldCfg {
		return fmt.Errorf("warm oracle chose {%s}, fresh oracle {%s}", warmCfg, coldCfg)
	}
	if warmCalls != coldCalls {
		return fmt.Errorf("warm oracle charged %d calls, fresh oracle %d", warmCalls, coldCalls)
	}
	return nil
}
