package main

import (
	"fmt"
	"sort"
	"strings"

	"prism/internal/constraint"
	"prism/internal/dataset"
	"prism/internal/exec"
	"prism/internal/lang"
	"prism/internal/mem"
	"prism/internal/schema"
	"prism/internal/workload"
)

// caseSpec is one specification a workload sends, with the ground-truth
// plan it was generated from (nil for hand-written specs).
type caseSpec struct {
	name  string
	spec  *constraint.Spec
	truth *exec.Plan
}

// mondialX10 is Mondial with every top-level count scaled by ten (about
// 11k rows); the smoke size is the default (about 1.1k rows).
func mondialX10(smoke bool) (*mem.Database, error) {
	cfg := dataset.DefaultMondialConfig()
	if !smoke {
		cfg.Countries *= 10
		cfg.Lakes *= 10
		cfg.Rivers *= 10
		cfg.Mountains *= 10
	}
	return dataset.Mondial(cfg)
}

// mondialDefault is the demo-sized Mondial; the smoke size is a quarter.
func mondialDefault(smoke bool) (*mem.Database, error) {
	cfg := dataset.DefaultMondialConfig()
	if smoke {
		cfg.Countries /= 2
		cfg.Lakes /= 4
		cfg.Rivers /= 4
		cfg.Mountains /= 4
	}
	return dataset.Mondial(cfg)
}

// table1 is the paper's §3 walkthrough spec; its ground truth is the
// Lake ⋈ geo_lake mapping of Table 1.
func table1() (caseSpec, error) {
	spec, err := constraint.ParseGrid(3,
		[][]string{{"California || Nevada", "Lake Tahoe", ""}},
		[]string{"", "", "DataType=='decimal' AND MinValue>='0'"})
	if err != nil {
		return caseSpec{}, err
	}
	truth := workload.MondialGroundTruths()[0].Plan
	return caseSpec{name: "table1", spec: spec, truth: &truth}, nil
}

// metadataGrid is the walkthrough's metadata-only three-column grid: no
// samples, only data types, so every text/text/decimal column triple is a
// candidate (1,888 candidates, 2,970 filters on default Mondial).
func metadataGrid() (caseSpec, error) {
	spec, err := constraint.ParseGrid(3, nil,
		[]string{"DataType=='text'", "DataType=='text'", "DataType=='decimal' AND MinValue>='0'"})
	if err != nil {
		return caseSpec{}, err
	}
	return caseSpec{name: "metadata-grid", spec: spec}, nil
}

// shapeClass names which cells of a generated spec stay exact: per target
// column, how many sample rows hold an exact keyword there. Rounds of one
// class cost about the same, whatever values the seed picked.
func shapeClass(sp *constraint.Spec) string {
	var b strings.Builder
	for c := 0; c < sp.NumColumns; c++ {
		n := 0
		for _, s := range sp.Samples {
			if _, ok := s.Cells[c].(lang.Keyword); ok {
				n++
			}
		}
		fmt.Fprintf(&b, "%d", n)
	}
	return b.String()
}

// oneOpenColumnClass names which target columns hold no exact keyword at
// all; it drops ("") specs that leave two or more columns open. Such a
// round searches every column pair of the schema, a 0.1 s to 1 s round
// whose cost turns on the one constrained value, so a few of them would
// make the whole run's tail a matter of the seed; the metadata grid
// below stands for that regime with fixed inputs.
func oneOpenColumnClass(sp *constraint.Spec) string {
	class := []byte(shapeClass(sp))
	open := 0
	for i, c := range class {
		if c == '0' {
			open++
		} else {
			class[i] = '1'
		}
	}
	if open > 1 {
		return ""
	}
	return string(class)
}

func sameClass(*constraint.Spec) string { return "all" }

// stratified draws perTruth cases per ground truth at one level. The
// generator degrades cells at random, and a few loose cells can change a
// round's cost tenfold, so a plain draw would make the mix of cheap and
// dear rounds depend on the seed. Instead it draws a pool, groups it by
// class, and takes one case of each class in turn, so every seed yields
// the same classes in the same proportions and the seed picks only the
// values. Cases whose class is "" are left out.
func stratified(gen *workload.Generator, level workload.Level, perTruth int, cfg workload.Config, classOf func(*constraint.Spec) string) ([]caseSpec, error) {
	truths := gen.Mappings()
	pool, err := gen.Generate(level, 8*perTruth*len(truths), cfg)
	if err != nil {
		return nil, fmt.Errorf("generating %s cases: %w", level, err)
	}
	byClass := make(map[string]map[string][]workload.TestCase, len(truths))
	for i, tc := range pool {
		t := truths[i%len(truths)].Name
		if byClass[t] == nil {
			byClass[t] = map[string][]workload.TestCase{}
		}
		if k := classOf(tc.Spec); k != "" {
			byClass[t][k] = append(byClass[t][k], tc)
		}
	}
	var out []caseSpec
	for _, t := range truths {
		classes := make([]string, 0, len(byClass[t.Name]))
		for k := range byClass[t.Name] {
			classes = append(classes, k)
		}
		sort.Strings(classes)
		taken := 0
		for round := 0; taken < perTruth; round++ {
			progress := false
			for _, k := range classes {
				if taken == perTruth || round >= len(byClass[t.Name][k]) {
					continue
				}
				tc := byClass[t.Name][k][round]
				truth := tc.GroundTruth
				out = append(out, caseSpec{name: tc.Name + "/" + k, spec: tc.Spec, truth: &truth})
				taken++
				progress = true
			}
			if !progress {
				break
			}
		}
	}
	return out, nil
}

// paperPreviewSpecs is the paper-previews spec list: Table 1 plus
// generated cases at the exact, disjunction, range and paper levels, two
// samples each, half the cells loosened.
func paperPreviewSpecs(db *mem.Database, seed int64, smoke bool) ([]caseSpec, error) {
	t1, err := table1()
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(db, seed, workload.MondialGroundTruths())
	if err != nil {
		return nil, err
	}
	perTruth := 27 // the number of shape classes of two-sample, three-column specs
	if smoke {
		perTruth = 1
	}
	out := []caseSpec{t1}
	cfg := workload.Config{SamplesPerCase: 2, LoosenFraction: 0.5}
	for _, lv := range []workload.Level{workload.LevelExact, workload.LevelDisjunction, workload.LevelRange, workload.LevelPaper} {
		cases, err := stratified(gen, lv, perTruth, cfg, shapeClass)
		if err != nil {
			return nil, err
		}
		out = append(out, cases...)
	}
	return out, nil
}

// lowresSpecs is the lowres-sql spec list: the metadata-only grid, six
// times per cycle, plus generated metadata and missing cases with every
// cell degraded. The grid's share (over 5% of rounds) puts round_p95_ms
// inside its fixed-input cluster; three missing cases per class put the
// median among many cheap rounds, not a few.
func lowresSpecs(db *mem.Database, seed int64, smoke bool) ([]caseSpec, error) {
	grid, err := metadataGrid()
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(db, seed, workload.MondialGroundTruths())
	if err != nil {
		return nil, err
	}
	cfg := workload.Config{SamplesPerCase: 2, LoosenFraction: 1}
	out := []caseSpec{grid, grid, grid, grid, grid, grid}
	if smoke {
		out = out[:1]
	}
	// A metadata case with every cell degraded does not depend on the seed:
	// one per ground truth. Missing cases fall in four classes: no open
	// column, or one of the three; three cases of each.
	levels := []struct {
		level    workload.Level
		perTruth int
		classOf  func(*constraint.Spec) string
	}{
		{workload.LevelMetadata, 1, sameClass},
		{workload.LevelMissing, 12, oneOpenColumnClass},
	}
	for _, l := range levels {
		n := l.perTruth
		if smoke {
			n = 1
		}
		cases, err := stratified(gen, l.level, n, cfg, l.classOf)
		if err != nil {
			return nil, err
		}
		out = append(out, cases...)
	}
	return out, nil
}

// servedTruths are the ground-truth mappings sessions are drawn from, per
// bundled data set.
func servedTruths(name string) []workload.GroundTruthMapping {
	ref := func(t, c string) schema.ColumnRef { return schema.ColumnRef{Table: t, Column: c} }
	edge := func(lt, lc, rt, rc string) exec.JoinEdge { return exec.JoinEdge{Left: ref(lt, lc), Right: ref(rt, rc)} }
	switch name {
	case "imdb":
		return []workload.GroundTruthMapping{
			{Name: "movie-cast-year", Plan: exec.Plan{
				Tables:  []string{"Movie", "CastRole", "Person"},
				Joins:   []exec.JoinEdge{edge("CastRole", "Movie", "Movie", "Title"), edge("CastRole", "Person", "Person", "Name")},
				Project: []schema.ColumnRef{ref("Movie", "Title"), ref("Person", "Name"), ref("Movie", "Year")},
			}},
			{Name: "movie-genre-rating", Plan: exec.Plan{
				Tables:  []string{"Movie", "MovieGenre"},
				Joins:   []exec.JoinEdge{edge("MovieGenre", "Movie", "Movie", "Title")},
				Project: []schema.ColumnRef{ref("Movie", "Title"), ref("MovieGenre", "Genre"), ref("Movie", "Rating")},
			}},
			{Name: "director-birth", Plan: exec.Plan{
				Tables:  []string{"Director", "Person"},
				Joins:   []exec.JoinEdge{edge("Director", "Person", "Person", "Name")},
				Project: []schema.ColumnRef{ref("Director", "Movie"), ref("Person", "Name"), ref("Person", "BirthYear")},
			}},
		}
	case "nba":
		return []workload.GroundTruthMapping{
			{Name: "player-city-points", Plan: exec.Plan{
				Tables:  []string{"Player", "Team"},
				Joins:   []exec.JoinEdge{edge("Player", "Team", "Team", "Name")},
				Project: []schema.ColumnRef{ref("Player", "Name"), ref("Team", "City"), ref("Player", "PointsPerGame")},
			}},
			{Name: "home-games", Plan: exec.Plan{
				Tables:  []string{"Game", "Team"},
				Joins:   []exec.JoinEdge{edge("Game", "HomeTeam", "Team", "Name")},
				Project: []schema.ColumnRef{ref("Team", "City"), ref("Game", "AwayTeam"), ref("Game", "HomeScore")},
			}},
			{Name: "player-position-height", Plan: exec.Plan{
				Tables:  []string{"Player"},
				Project: []schema.ColumnRef{ref("Player", "Name"), ref("Player", "Position"), ref("Player", "Height")},
			}},
		}
	default:
		return workload.MondialGroundTruths()
	}
}
