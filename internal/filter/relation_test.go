package filter

import (
	"context"
	"errors"
	"slices"
	"testing"

	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/graphx"
	"prism/internal/mem"
	"prism/internal/schema"
)

// gridCandidates enumerates the candidates of the metadata-only
// three-column grid (two text columns and a non-negative decimal) over db,
// the way a discovery round does: every source column whose metadata
// satisfies a target column is related to it, and join trees have at most
// four tables.
func gridCandidates(t testing.TB, db *mem.Database) []graphx.Candidate {
	t.Helper()
	spec, err := constraint.ParseGrid(3, nil,
		[]string{"DataType=='text'", "DataType=='text'", "DataType=='decimal' AND MinValue>='0'"})
	if err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	related := make([][]schema.ColumnRef, spec.NumColumns)
	for col := range related {
		for _, st := range db.AllStats() {
			ref := st.Ref
			if spec.ColumnFeasible(col, st, func(kw string) bool { return db.ColumnHasKeyword(ref, kw) }) {
				related[col] = append(related[col], ref)
			}
		}
	}
	cands, err := graphx.Enumerate(graphx.New(db.Schema()), related, graphx.EnumerateOptions{
		MaxTables:           4,
		MaxCandidates:       5000,
		RequireUsefulLeaves: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

func mondialGrid(t testing.TB) []graphx.Candidate {
	t.Helper()
	db, err := dataset.Mondial(dataset.DefaultMondialConfig())
	if err != nil {
		t.Fatal(err)
	}
	return gridCandidates(t, db)
}

// checkRelationAgainstOracle compares the posting-list relation with the
// pairwise isSubFilter definition over every ordered pair of filters:
// Parents(i) must list exactly the j ≠ i with isSubFilter(i, j), ascending,
// and Children(j) exactly the i ≠ j with isSubFilter(i, j), ascending.
func checkRelationAgainstOracle(t *testing.T, set *Set) {
	t.Helper()
	n := set.NumFilters()
	children := make([][]int, n)
	for i, a := range set.Filters {
		var parents []int
		for j, b := range set.Filters {
			if i != j && isSubFilter(a, b) {
				parents = append(parents, j)
				children[j] = append(children[j], i)
			}
		}
		if !slices.Equal(set.Parents(i), parents) {
			t.Fatalf("Parents(%d) = %v, oracle %v", i, set.Parents(i), parents)
		}
	}
	for j := range set.Filters {
		if !slices.Equal(set.Children(j), children[j]) {
			t.Fatalf("Children(%d) = %v, oracle %v", j, set.Children(j), children[j])
		}
	}
}

func TestRelationMatchesPairwiseOracle(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		checkRelationAgainstOracle(t, Decompose(newFixture(t).candidates))
	})
	builds := []struct {
		name  string
		build func() (*mem.Database, error)
	}{
		{"mondial", func() (*mem.Database, error) { return dataset.Mondial(dataset.DefaultMondialConfig()) }},
		{"imdb", func() (*mem.Database, error) { return dataset.IMDB(dataset.DefaultIMDBConfig()) }},
		{"nba", func() (*mem.Database, error) { return dataset.NBA(dataset.DefaultNBAConfig()) }},
	}
	for _, b := range builds {
		t.Run(b.name+"-grid", func(t *testing.T) {
			db, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			set := Decompose(gridCandidates(t, db))
			if set.NumFilters() < 2 {
				t.Fatalf("grid decomposed into %d filters", set.NumFilters())
			}
			t.Logf("%d candidates, %d filters", set.NumCandidates(), set.NumFilters())
			checkRelationAgainstOracle(t, set)
		})
	}
}

// cancelAfterCtx is a context whose Err turns non-nil after a fixed number
// of calls, so cancellation lands inside DecomposeContext rather than
// before it.
type cancelAfterCtx struct {
	context.Context
	calls, after int
}

func (c *cancelAfterCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

func TestDecomposeCancelledMidRelation(t *testing.T) {
	cands := mondialGrid(t)
	// The candidate loop polls every 64 candidates; let every one of those
	// polls pass so the cancellation fires inside the relation loop.
	candidatePolls := (len(cands) + 63) / 64
	ctx := &cancelAfterCtx{Context: context.Background(), after: candidatePolls + 2}
	set, err := DecomposeContext(ctx, cands)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DecomposeContext = %v, want context.Canceled", err)
	}
	if set != nil {
		t.Error("cancelled decomposition returned a set")
	}
	if ctx.calls <= candidatePolls {
		t.Errorf("cancelled after %d polls, before the relation loop (%d candidate polls)", ctx.calls, candidatePolls)
	}
}

// BenchmarkDecomposeGrid decomposes the 1,888-candidate metadata-only grid
// over default Mondial — large enough to show the cost of building the
// dependency relation, which the fixture of BenchmarkDecompose is not.
func BenchmarkDecomposeGrid(b *testing.B) {
	cands := mondialGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecomposeContext(context.Background(), cands); err != nil {
			b.Fatal(err)
		}
	}
}
