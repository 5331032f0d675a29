package sched_test

import (
	"context"
	"testing"

	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/discovery"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/sched"
)

// TestCostModelCalledOncePerFilter runs the metadata-only three-column grid
// over default Mondial — no samples, so every failure probability is equal
// and nearly every pick is decided by the cost tiebreak — with a counting
// cost model. The run must ask the model at most once per filter, and at
// Parallelism 1 the memoised tiebreak must reproduce the validation and
// implied counts of the per-tie cost model it replaced.
func TestCostModelCalledOncePerFilter(t *testing.T) {
	db, err := dataset.Mondial(dataset.DefaultMondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := constraint.ParseGrid(3, nil,
		[]string{"DataType=='text'", "DataType=='text'", "DataType=='decimal' AND MinValue>='0'"})
	if err != nil {
		t.Fatal(err)
	}
	engine := discovery.NewEngine(db)
	related, err := engine.RelatedColumns(spec)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := graphx.Enumerate(graphx.New(db.Schema()), related, graphx.EnumerateOptions{
		MaxTables: 4, MaxCandidates: 5000, RequireUsefulLeaves: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := filter.Decompose(cands)
	if set.NumCandidates() != 1888 || set.NumFilters() != 2970 {
		t.Fatalf("grid has %d candidates and %d filters, want 1888 and 2970", set.NumCandidates(), set.NumFilters())
	}

	estimators := []struct {
		name string
		est  sched.Estimator
		// Counts at Parallelism 1 with a cost model consulted on every tie.
		validations, implied int
	}{
		{"bayes", &sched.BayesEstimator{Model: engine.Model(), Spec: spec}, 1888, 1082},
		{"pathlength", &sched.PathLengthEstimator{}, 2432, 538},
	}
	for _, tc := range estimators {
		for _, p := range []int{1, 2} {
			calls := make(map[*filter.Filter]int)
			// The default cost model (sum of base-table sizes), counted. The
			// scheduling goroutine is the only caller, so the map needs no lock.
			costModel := func(f *filter.Filter) float64 {
				calls[f]++
				cost := 0.0
				for _, tb := range f.Tree.Tables {
					cost += float64(db.NumRows(tb))
				}
				return cost
			}
			runner := &sched.Runner{
				DB: db, Spec: spec, Set: set, Estimator: tc.est,
				Options: sched.Options{Parallelism: p, CostModel: costModel},
			}
			res, err := runner.RunContext(context.Background())
			if err != nil {
				t.Fatalf("%s/p%d: %v", tc.name, p, err)
			}
			if len(calls) == 0 {
				t.Fatalf("%s/p%d: the cost model was never consulted", tc.name, p)
			}
			for f, n := range calls {
				if n > 1 {
					t.Fatalf("%s/p%d: cost model called %d times for %s", tc.name, p, n, f)
				}
			}
			if len(res.Confirmed)+len(res.Pruned) != set.NumCandidates() {
				t.Errorf("%s/p%d: resolved %d+%d of %d candidates",
					tc.name, p, len(res.Confirmed), len(res.Pruned), set.NumCandidates())
			}
			if p == 1 && (res.Validations != tc.validations || res.Implied != tc.implied) {
				t.Errorf("%s/p1: validations=%d implied=%d, want %d and %d",
					tc.name, res.Validations, res.Implied, tc.validations, tc.implied)
			}
		}
	}
}
