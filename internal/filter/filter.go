// Package filter implements the filter-based validation of candidate schema
// mapping queries (§2.3 step #2).
//
// A filter is a sub-join-tree of a candidate query together with the target
// columns whose source columns fall inside the subtree — a shorter
// Project-Join query. Validating a filter asks whether, for every sample
// constraint, the filter's result contains a tuple matching the sample's
// cells restricted to the covered target columns. Because any tuple of the
// full candidate projects onto a tuple of each of its filters:
//
//   - if a filter fails, every filter containing it and every candidate it
//     was derived from fail too (upward failure propagation, the pruning
//     the paper exploits);
//   - if a filter passes, every filter contained in it passes too
//     (downward success propagation).
//
// Filters are shared across candidates: one cheap validation can prune many
// expensive candidates, which is why the order of validation (the concern
// of package sched) matters.
package filter

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"prism/internal/constraint"
	"prism/internal/exec"
	"prism/internal/graphx"
	"prism/internal/lang"
	"prism/internal/rowset"
	"prism/internal/schema"
	"prism/internal/value"
)

// Outcome is the validation state of a filter.
type Outcome uint8

const (
	// Unknown means the filter has not been validated or implied yet.
	Unknown Outcome = iota
	// Passed means the filter is satisfied (validated directly or implied
	// by a passing super-filter).
	Passed
	// Failed means the filter is violated (validated directly or implied by
	// a failing sub-filter).
	Failed
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Unknown:
		return "unknown"
	case Passed:
		return "passed"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Filter is one sub-join-tree with its covered target columns.
type Filter struct {
	// Key is the canonical identity of the filter; filters with equal keys
	// are shared across candidates.
	Key string
	// Tree is the sub-join-tree (tables plus foreign-key edges).
	Tree graphx.Tree
	// TargetCols lists the covered target-column indexes, ascending.
	TargetCols []int
	// Sources lists, parallel to TargetCols, the source column each covered
	// target column projects from.
	Sources []schema.ColumnRef

	planOnce sync.Once
	plan     exec.Plan
	fpOnce   sync.Once
	fp       string
}

// IsTopOf reports whether the filter covers the full candidate (same tree
// size and all target columns).
func (f *Filter) IsTopOf(c graphx.Candidate) bool {
	return f.Tree.Size() == c.Tree.Size() && len(f.TargetCols) == len(c.Projection)
}

// Plan returns the executable Project-Join plan of the filter. The plan is
// built once and memoised — a filter is validated once per sample per
// round, and the hot validation path must not re-allocate the slices every
// probe. The returned plan's slices are shared; callers (executors) treat
// plans as read-only.
func (f *Filter) Plan() exec.Plan {
	f.planOnce.Do(func() {
		joins := make([]exec.JoinEdge, len(f.Tree.Edges))
		for i, e := range f.Tree.Edges {
			joins[i] = exec.JoinEdge{Left: e.From, Right: e.To}
		}
		f.plan = exec.Plan{
			Tables:  f.Tree.Tables,
			Joins:   joins,
			Project: f.Sources,
		}
	})
	return f.plan
}

// planFingerprintComputations counts how many times a Filter actually
// canonicalised and hashed its plan (as opposed to serving the memo). It
// exists for the test pinning that batch grouping and cache keying cost one
// fingerprint computation per filter, not one per probe.
var planFingerprintComputations atomic.Int64

// PlanFingerprintComputations returns the process-wide count of plan
// fingerprints computed (not served from a Filter's memo).
func PlanFingerprintComputations() int64 { return planFingerprintComputations.Load() }

// PlanFingerprint returns the fingerprint of the filter's plan, memoised
// next to the plan itself. It is the batch grouping key: filters sharing it
// have identical canonical plans, so one shared scan/join pipeline can
// answer all their validations. The scheduler consults it every round and
// the outcome cache keys on it, so it must not re-canonicalise and re-hash
// the plan per probe.
func (f *Filter) PlanFingerprint() string {
	f.fpOnce.Do(func() {
		f.fp = f.Plan().Fingerprint()
		planFingerprintComputations.Add(1)
	})
	return f.fp
}

// JoinPathLength returns the number of join edges; the Filter baseline's
// failure-probability heuristic is proportional to it.
func (f *Filter) JoinPathLength() int { return len(f.Tree.Edges) }

// String renders the filter compactly.
func (f *Filter) String() string {
	cols := make([]string, len(f.TargetCols))
	for i, tc := range f.TargetCols {
		cols[i] = fmt.Sprintf("c%d=%s", tc+1, f.Sources[i])
	}
	return fmt.Sprintf("filter[%s | %s]", f.Tree, strings.Join(cols, ", "))
}

// filterKey is the canonical tree signature followed by one
// "#col:source" part per covered target column, source lower-cased.
func filterKey(canonical string, targetCols []int, sources []schema.ColumnRef) string {
	var b strings.Builder
	b.WriteString(canonical)
	for i, tc := range targetCols {
		b.WriteByte('#')
		b.WriteString(strconv.Itoa(tc))
		b.WriteByte(':')
		b.WriteString(strings.ToLower(sources[i].String()))
	}
	return b.String()
}

// Set is the filter decomposition of a batch of candidate queries, with the
// candidate associations and the sub/super dependency relation.
type Set struct {
	// Filters holds every distinct filter.
	Filters []*Filter
	// Candidates are the decomposed candidates, in the order given.
	Candidates []graphx.Candidate
	// CandidateFilters lists, per candidate, the indexes of its filters.
	CandidateFilters [][]int
	// Top lists, per candidate, the index of its top (complete) filter.
	Top []int
	// parents[i] lists filters that contain filter i (super-filters).
	parents [][]int
	// children[i] lists filters contained in filter i (sub-filters).
	children [][]int
	// candidatesOf[i] lists candidates that include filter i.
	candidatesOf [][]int
}

// NumFilters returns the number of distinct filters.
func (s *Set) NumFilters() int { return len(s.Filters) }

// NumCandidates returns the number of candidates.
func (s *Set) NumCandidates() int { return len(s.Candidates) }

// Parents returns the indexes of super-filters of filter i.
func (s *Set) Parents(i int) []int { return s.parents[i] }

// Children returns the indexes of sub-filters of filter i.
func (s *Set) Children(i int) []int { return s.children[i] }

// CandidatesOf returns the candidates containing filter i.
func (s *Set) CandidatesOf(i int) []int { return s.candidatesOf[i] }

// Decompose builds the filter set of the candidates: every connected
// subtree of each candidate's join tree that hosts at least one projected
// column becomes a filter, deduplicated across candidates.
func Decompose(candidates []graphx.Candidate) *Set {
	s, _ := DecomposeContext(context.Background(), candidates)
	return s
}

// DecomposeContext is Decompose under a context. Wide candidate sets
// decompose into thousands of filters, and the dependency relation ANDs
// one filter-indexed bitmap per element of every filter, so cancellation
// is checked throughout and aborts with ctx.Err().
func DecomposeContext(ctx context.Context, candidates []graphx.Candidate) (*Set, error) {
	s := &Set{
		Candidates:       candidates,
		CandidateFilters: make([][]int, len(candidates)),
		Top:              make([]int, len(candidates)),
	}
	index := make(map[string]int)

	// candFilterSet is a dense filter-index bitset reused across
	// candidates; iterating it recovers each candidate's filter list in
	// ascending order without a per-candidate map + sort.
	candFilterSet := rowset.New(0)
	// Most subtrees repeat a filter minted by an earlier candidate, so the
	// covered columns are gathered in scratch slices and copied out only
	// for a new filter.
	var targetCols []int
	var sources []schema.ColumnRef
	// Candidates share a few join trees and differ in their projections
	// (the 1,888 metadata-grid candidates over default Mondial use 48
	// trees), so each distinct tree's subtrees are enumerated once. The key
	// is the raw tree, spelling and order included: both shape the order
	// and spelling of the subtrees, and so the filter indexes.
	subtreesOf := make(map[string][]subtree)
	for ci, cand := range candidates {
		if ci%64 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		treeKey := rawTreeKey(cand.Tree)
		subtrees, ok := subtreesOf[treeKey]
		if !ok {
			subtrees = enumerateSubtrees(cand.Tree)
			subtreesOf[treeKey] = subtrees
		}
		// Size the bitset for the worst case: every subtree mints a new
		// filter.
		candFilterSet.Reset(len(s.Filters) + len(subtrees))
		for _, st := range subtrees {
			sub := st.tree
			targetCols, sources = targetCols[:0], sources[:0]
			for tc, src := range cand.Projection {
				if sub.Contains(src.Table) {
					targetCols = append(targetCols, tc)
					sources = append(sources, src)
				}
			}
			if len(targetCols) == 0 {
				continue
			}
			key := filterKey(st.canonical, targetCols, sources)
			fi, ok := index[key]
			if !ok {
				fi = len(s.Filters)
				index[key] = fi
				s.Filters = append(s.Filters, &Filter{
					Key:        key,
					Tree:       sub,
					TargetCols: slices.Clone(targetCols),
					Sources:    slices.Clone(sources),
				})
			}
			candFilterSet.Add(int32(fi))
			if sub.Size() == cand.Tree.Size() && len(targetCols) == len(cand.Projection) {
				s.Top[ci] = fi
			}
		}
		filters := make([]int, 0, candFilterSet.Popcount())
		candFilterSet.ForEach(func(fi int32) bool {
			filters = append(filters, int(fi))
			return true
		})
		s.CandidateFilters[ci] = filters
	}

	// Candidate membership per filter.
	s.candidatesOf = make([][]int, len(s.Filters))
	for ci, filters := range s.CandidateFilters {
		for _, fi := range filters {
			s.candidatesOf[fi] = append(s.candidatesOf[fi], ci)
		}
	}

	if err := s.relate(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// relate builds the dependency relation: i ≺ j (i is a sub-filter of j) iff
// i's tables, edges and covered column mapping are all subsets of j's.
// Every filter is reduced to the interned IDs of those elements, and each
// element keeps a posting bitmap of the filters holding it. The
// super-filters of i are then the AND of its elements' postings, minus i —
// a word-wise pass per element instead of a string comparison per filter
// pair. Iterating the result in ascending order gives Parents(i), and
// appending i to its parents' lists in ascending i gives Children(j), both
// in index order.
func (s *Set) relate(ctx context.Context) error {
	n := len(s.Filters)
	elems, numElems := internElements(s.Filters)
	postings := make([]*rowset.Bitmap, numElems)
	for e := range postings {
		postings[e] = rowset.New(n)
	}
	for i, ids := range elems {
		for _, e := range ids {
			postings[e].Add(int32(i))
		}
	}

	// parentOff[i]:parentOff[i+1] delimits filter i's parents in one shared
	// backing array; the children lists share a second one.
	var flat []int
	parentOff := make([]int, n+1)
	childCount := make([]int, n)
	supers := rowset.New(n)
	var buf []int32
	for i, ids := range elems {
		if i%16 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		supers.Reset(n)
		supers.Or(postings[ids[0]])
		for _, e := range ids[1:] {
			supers.And(postings[e])
		}
		supers.Remove(int32(i))
		a := s.Filters[i]
		buf = supers.AppendTo(buf[:0])
		for _, j := range buf {
			// Distinct tables and target columns make these implied by the
			// element subset; they are kept so that the relation matches
			// isSubFilter on any input.
			b := s.Filters[j]
			if a.Tree.Size() > b.Tree.Size() || len(a.TargetCols) > len(b.TargetCols) {
				continue
			}
			flat = append(flat, int(j))
			childCount[j]++
		}
		parentOff[i+1] = len(flat)
	}

	childFlat := make([]int, len(flat))
	childOff := make([]int, n+1)
	for j, c := range childCount {
		childOff[j+1] = childOff[j] + c
	}
	s.parents = make([][]int, n)
	s.children = make([][]int, n)
	for j := range s.children {
		lo := childOff[j]
		s.children[j] = childFlat[lo:lo:childOff[j+1]]
	}
	for i := range s.parents {
		ps := flat[parentOff[i]:parentOff[i+1]:parentOff[i+1]]
		s.parents[i] = ps
		for _, j := range ps {
			s.children[j] = append(s.children[j], i)
		}
	}
	return nil
}

// internElements maps every filter to the dense IDs of its containment
// elements: lower-cased tables, canonical edge keys and (target column,
// lower-cased source) pairs, all in one ID space. Raw (case-preserving)
// names are memoised in front of the canonical maps, so each distinct name
// is lower-cased and keyed once rather than once per filter.
func internElements(filters []*Filter) (elems [][]int32, numElems int) {
	type colKey struct {
		tc  int
		src string
	}
	type rawColKey struct {
		tc  int
		src schema.ColumnRef
	}
	var next int32
	tableIDs := make(map[string]int32)
	edgeIDs := make(map[string]int32)
	colIDs := make(map[colKey]int32)
	tables := make(map[string]int32)
	edges := make(map[schema.ForeignKey]int32)
	cols := make(map[rawColKey]int32)

	elems = make([][]int32, len(filters))
	for i, f := range filters {
		out := make([]int32, 0, len(f.Tree.Tables)+len(f.Tree.Edges)+len(f.TargetCols))
		for _, t := range f.Tree.Tables {
			e, ok := tables[t]
			if !ok {
				e = intern(tableIDs, strings.ToLower(t), &next)
				tables[t] = e
			}
			out = append(out, e)
		}
		for _, fk := range f.Tree.Edges {
			e, ok := edges[fk]
			if !ok {
				e = intern(edgeIDs, edgeKey(fk), &next)
				edges[fk] = e
			}
			out = append(out, e)
		}
		for k, tc := range f.TargetCols {
			raw := rawColKey{tc, f.Sources[k]}
			e, ok := cols[raw]
			if !ok {
				e = intern(colIDs, colKey{tc, strings.ToLower(f.Sources[k].String())}, &next)
				cols[raw] = e
			}
			out = append(out, e)
		}
		elems[i] = out
	}
	return elems, int(next)
}

// intern returns key's ID in m, assigning the next free ID on first sight.
func intern[K comparable](m map[K]int32, key K, next *int32) int32 {
	id, ok := m[key]
	if !ok {
		id = *next
		*next++
		m[key] = id
	}
	return id
}

// isSubFilter reports whether a is contained in b: a's tables, edges and
// covered column mapping are all subsets of b's. It is the pairwise
// definition the posting-list relation of DecomposeContext implements.
func isSubFilter(a, b *Filter) bool {
	if a.Tree.Size() > b.Tree.Size() || len(a.TargetCols) > len(b.TargetCols) {
		return false
	}
	for _, t := range a.Tree.Tables {
		if !b.Tree.Contains(t) {
			return false
		}
	}
	for _, ea := range a.Tree.Edges {
		k := edgeKey(ea)
		if !slices.ContainsFunc(b.Tree.Edges, func(eb schema.ForeignKey) bool { return edgeKey(eb) == k }) {
			return false
		}
	}
	for i, tc := range a.TargetCols {
		k := slices.Index(b.TargetCols, tc)
		if k < 0 || strings.ToLower(a.Sources[i].String()) != strings.ToLower(b.Sources[k].String()) {
			return false
		}
	}
	return true
}

func edgeKey(e schema.ForeignKey) string {
	a, b := strings.ToLower(e.From.String()), strings.ToLower(e.To.String())
	if a > b {
		a, b = b, a
	}
	return a + "=" + b
}

// rawTreeKey identifies a tree by its exact table and edge lists.
func rawTreeKey(t graphx.Tree) string {
	var b strings.Builder
	for _, tb := range t.Tables {
		b.WriteString(tb)
		b.WriteByte(0)
	}
	for _, e := range t.Edges {
		for _, part := range [...]string{e.From.Table, e.From.Column, e.To.Table, e.To.Column} {
			b.WriteByte(1)
			b.WriteString(part)
		}
	}
	return b.String()
}

// subtree is a connected subtree of a candidate tree with its canonical
// signature, computed once during enumeration and reused as the prefix of
// the filter key.
type subtree struct {
	tree      graphx.Tree
	canonical string
}

// enumerateSubtrees lists every connected subtree of the candidate tree
// (including single tables and the full tree).
func enumerateSubtrees(t graphx.Tree) []subtree {
	seen := make(map[string]struct{})
	var out []subtree
	// add records sub and reports whether no equal subtree was seen before.
	add := func(sub graphx.Tree) bool {
		key := sub.Canonical()
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		out = append(out, subtree{tree: sub, canonical: key})
		return true
	}
	// Start from each table and grow along the candidate's own edges.
	var expand func(sub graphx.Tree)
	expand = func(sub graphx.Tree) {
		for _, table := range sub.Tables {
			for _, e := range t.Edges {
				var other string
				switch {
				case strings.EqualFold(e.From.Table, table):
					other = e.To.Table
				case strings.EqualFold(e.To.Table, table):
					other = e.From.Table
				default:
					continue
				}
				if sub.Contains(other) {
					continue
				}
				next := graphx.Tree{
					Tables: append(append([]string(nil), sub.Tables...), other),
					Edges:  append(append([]schema.ForeignKey(nil), sub.Edges...), e),
				}
				if add(next) {
					expand(next)
				}
			}
		}
	}
	for _, table := range t.Tables {
		sub := graphx.Tree{Tables: []string{table}}
		add(sub)
		expand(sub)
	}
	return out
}

// ValidationResult reports one filter validation.
type ValidationResult struct {
	Passed bool
	Cost   exec.ExecStats
}

// Validator executes filter validations against an execution backend for a
// given constraint specification.
type Validator struct {
	// DB is the execution backend probed by validations: any exec.Executor
	// (the in-memory reference engine or the columnar engine).
	DB   exec.Executor
	Spec *constraint.Spec
	// MaxIntermediate guards runaway joins during validation (0 = default).
	MaxIntermediate int

	// tmpls caches, per sample × target column, the pushed-down predicate
	// derived from the cell (Eval closure, normalised keyword cover,
	// numeric bounds). One scheduling run validates hundreds of filters
	// against the same handful of cells; without the cache every
	// validation re-derived the cover and re-normalised the keywords.
	tmplOnce sync.Once
	tmpls    [][]predTemplate
}

// predTemplate is the reusable pushed-down form of one constrained cell.
type predTemplate struct {
	pred     func(value.Value) bool
	keywords []string
	bounds   *exec.NumericBounds
	exact    bool // bounds characterise pred exactly (lang.ExactRangeBounds)
	ok       bool // cell present and non-nil
}

// templates builds the per-cell predicate templates once; safe for
// concurrent use (validations run on a worker pool).
func (v *Validator) templates() [][]predTemplate {
	v.tmplOnce.Do(func() {
		samples := v.Spec.Samples
		v.tmpls = make([][]predTemplate, len(samples))
		for si, sample := range samples {
			row := make([]predTemplate, len(sample.Cells))
			for ci, expr := range sample.Cells {
				if expr == nil {
					continue
				}
				t := predTemplate{pred: expr.Eval, ok: true}
				if kws, ok := lang.EqualityKeywords(expr); ok {
					// Normalise once: keyword-index lookups are
					// case-insensitive anyway, and pre-lowered keywords keep
					// the executor's per-probe path allocation-free.
					for i, kw := range kws {
						kws[i] = strings.ToLower(strings.TrimSpace(kw))
					}
					t.keywords = kws
				}
				// Range/ordering shapes additionally carry a numeric
				// interval cover, which zone-mapped executors compare
				// against column min/max to skip scans outright.
				if b, ok := lang.NumericBounds(expr); ok {
					t.bounds = &exec.NumericBounds{Lo: b.Lo, Hi: b.Hi, HasLo: b.HasLo, HasHi: b.HasHi}
					// A pure numeric range is characterised, not merely
					// covered, by its interval: executors answer it with two
					// float comparisons instead of a closure call per row.
					_, t.exact = lang.ExactRangeBounds(expr)
				}
				row[ci] = t
			}
			v.tmpls[si] = row
		}
	})
	return v.tmpls
}

// Validate executes the filter without cancellation; it is shorthand for
// ValidateContext with a background context.
func (v *Validator) Validate(f *Filter) (ValidationResult, error) {
	return v.ValidateContext(context.Background(), f)
}

// ValidateContext executes the filter: for every sample constraint there
// must be a result tuple of the filter's plan matching the sample's cells
// restricted to the covered target columns. Samples with no constrained
// covered cells still require the sub-join to be non-empty.
//
// Cancelling ctx aborts the validation mid-execution (between samples and
// inside the row-processing loops of the in-memory executor) and returns
// ctx.Err().
func (v *Validator) ValidateContext(ctx context.Context, f *Filter) (ValidationResult, error) {
	plan := f.Plan()
	var total exec.ExecStats
	tmpls := v.templates()
	samples := v.Spec.Samples
	if len(samples) == 0 {
		samples = []constraint.SampleConstraint{{Cells: make([]lang.ValueExpr, v.Spec.NumColumns)}}
	}
	for si, sample := range samples {
		if err := ctx.Err(); err != nil {
			return ValidationResult{Cost: total}, err
		}
		opts := exec.ExecOptions{
			MaxIntermediate: v.MaxIntermediate,
			Interrupt:       func() bool { return ctx.Err() != nil },
		}
		// Push single-column predicates down to base scans, from the
		// per-cell templates: equality-shaped cells carry their keyword
		// cover (point lookups on indexed executors), range shapes their
		// numeric bounds (zone-map pruning).
		var row []predTemplate
		if si < len(tmpls) {
			row = tmpls[si]
		}
		for i, tc := range f.TargetCols {
			if tc >= len(row) || !row[tc].ok {
				continue
			}
			t := &row[tc]
			opts.ColumnPredicates = append(opts.ColumnPredicates, exec.ColumnPredicate{
				Ref:         f.Sources[i],
				Pred:        t.pred,
				Keywords:    t.keywords,
				Bounds:      t.bounds,
				BoundsExact: t.exact,
			})
		}
		// The pushed-down predicates already enforce every covered cell, but
		// keep a tuple predicate as a defence in depth for shared source
		// columns (two target columns projecting the same source column).
		cols := f.TargetCols
		opts.TuplePredicate = func(t value.Tuple) bool {
			return sample.MatchesProjection(cols, t)
		}
		ok, stats, err := v.DB.Exists(plan, opts)
		total.Add(stats)
		if err != nil {
			if errors.Is(err, exec.ErrInterrupted) && ctx.Err() != nil {
				return ValidationResult{Cost: total}, ctx.Err()
			}
			return ValidationResult{Cost: total}, fmt.Errorf("filter: validating %s: %w", f, err)
		}
		if !ok {
			return ValidationResult{Passed: false, Cost: total}, nil
		}
	}
	return ValidationResult{Passed: true, Cost: total}, nil
}

// ValidateBatchContext validates several filters sharing one plan
// fingerprint with a single ExistsBatch call: one PredicateSet per
// filter × sample, answered by the backend in (at best) one shared
// scan/join pipeline. passed[i] reports what ValidateContext would report
// for fs[i]; the returned stats cover the whole batch (the per-filter
// attribution of shared work is the caller's policy). Filters with
// different plan fingerprints are an error — the caller groups before
// batching.
//
// Cancelling ctx aborts the batch mid-execution and returns ctx.Err(); no
// partial verdicts are reported.
func (v *Validator) ValidateBatchContext(ctx context.Context, fs []*Filter) ([]bool, exec.ExecStats, error) {
	if len(fs) == 0 {
		return nil, exec.ExecStats{}, nil
	}
	plan := fs[0].Plan()
	fp := fs[0].PlanFingerprint()
	for _, f := range fs[1:] {
		if f.PlanFingerprint() != fp {
			return nil, exec.ExecStats{}, fmt.Errorf("filter: batch mixes plans (%s vs %s)", fs[0], f)
		}
	}
	tmpls := v.templates()
	samples := v.Spec.Samples
	if len(samples) == 0 {
		samples = []constraint.SampleConstraint{{Cells: make([]lang.ValueExpr, v.Spec.NumColumns)}}
	}
	sets := make([]exec.PredicateSet, 0, len(fs)*len(samples))
	for _, f := range fs {
		for si := range samples {
			var set exec.PredicateSet
			var row []predTemplate
			if si < len(tmpls) {
				row = tmpls[si]
			}
			for i, tc := range f.TargetCols {
				if tc >= len(row) || !row[tc].ok {
					continue
				}
				t := &row[tc]
				set.ColumnPredicates = append(set.ColumnPredicates, exec.ColumnPredicate{
					Ref:         f.Sources[i],
					Pred:        t.pred,
					Keywords:    t.keywords,
					Bounds:      t.bounds,
					BoundsExact: t.exact,
				})
			}
			cols := f.TargetCols
			sample := samples[si]
			set.TuplePredicate = func(t value.Tuple) bool {
				return sample.MatchesProjection(cols, t)
			}
			sets = append(sets, set)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, exec.ExecStats{}, err
	}
	verdicts, stats, err := v.DB.ExistsBatch(plan, sets, exec.ExecOptions{
		MaxIntermediate: v.MaxIntermediate,
		Interrupt:       func() bool { return ctx.Err() != nil },
	})
	if err != nil {
		if errors.Is(err, exec.ErrInterrupted) && ctx.Err() != nil {
			return nil, stats, ctx.Err()
		}
		return nil, stats, fmt.Errorf("filter: batch-validating %d filters over plan %s: %w", len(fs), fp, err)
	}
	passed := make([]bool, len(fs))
	k := 0
	for fi := range fs {
		ok := true
		for range samples {
			if !verdicts[k].Satisfied {
				ok = false
			}
			k++
		}
		passed[fi] = ok
	}
	return passed, stats, nil
}

// CandidateStatus is the resolution state of a candidate during scheduling.
type CandidateStatus uint8

const (
	// CandidateUnresolved means the candidate is neither confirmed nor
	// pruned yet.
	CandidateUnresolved CandidateStatus = iota
	// CandidateConfirmed means its top filter passed: the candidate is a
	// final schema mapping query.
	CandidateConfirmed
	// CandidatePruned means one of its filters failed.
	CandidatePruned
)

// String names the status.
func (s CandidateStatus) String() string {
	switch s {
	case CandidateUnresolved:
		return "unresolved"
	case CandidateConfirmed:
		return "confirmed"
	case CandidatePruned:
		return "pruned"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Session tracks validation outcomes, propagates implications through the
// filter dependency DAG, and resolves candidates.
type Session struct {
	Set      *Set
	Outcomes []Outcome
	Status   []CandidateStatus

	// Executed counts filter validations actually run (the paper's metric).
	Executed int
	// Implied counts outcomes derived through propagation instead of
	// execution.
	Implied int
	// Cached counts outcomes served from a cross-round outcome cache —
	// validations an interactive session skipped entirely.
	Cached int
	// Cost accumulates execution statistics of the validations run.
	Cost exec.ExecStats
}

// NewSession creates a fresh session over a filter set.
func NewSession(set *Set) *Session {
	return &Session{
		Set:      set,
		Outcomes: make([]Outcome, set.NumFilters()),
		Status:   make([]CandidateStatus, set.NumCandidates()),
	}
}

// Determined reports whether filter i already has a known outcome.
func (s *Session) Determined(i int) bool { return s.Outcomes[i] != Unknown }

// Resolved reports whether candidate c is confirmed or pruned.
func (s *Session) Resolved(c int) bool { return s.Status[c] != CandidateUnresolved }

// UnresolvedCandidates returns the number of candidates still unresolved.
func (s *Session) UnresolvedCandidates() int {
	n := 0
	for _, st := range s.Status {
		if st == CandidateUnresolved {
			n++
		}
	}
	return n
}

// PruningReach returns the number of currently unresolved candidates that
// contain filter i — the immediate pruning power of a failure of i.
func (s *Session) PruningReach(i int) int {
	n := 0
	for _, ci := range s.Set.CandidatesOf(i) {
		if !s.Resolved(ci) {
			n++
		}
	}
	return n
}

// RecordExecution applies the result of directly validating filter i.
func (s *Session) RecordExecution(i int, res ValidationResult) {
	s.Executed++
	s.Cost.Add(res.Cost)
	if res.Passed {
		s.apply(i, Passed)
	} else {
		s.apply(i, Failed)
	}
}

// RecordCached applies an outcome served from a cross-round outcome cache:
// the filter is resolved (with full implication propagation) without
// counting as an executed validation, because no executor work happened.
func (s *Session) RecordCached(i int, passed bool) {
	s.Cached++
	if passed {
		s.apply(i, Passed)
	} else {
		s.apply(i, Failed)
	}
}

// apply sets the outcome of filter i and propagates implications.
func (s *Session) apply(i int, o Outcome) {
	if s.Outcomes[i] == o {
		return
	}
	if s.Outcomes[i] != Unknown {
		// Conflicting information indicates a bug in propagation or the
		// validator; keep the first outcome.
		return
	}
	s.Outcomes[i] = o
	switch o {
	case Failed:
		// Every super-filter fails too.
		for _, p := range s.Set.Parents(i) {
			if s.Outcomes[p] == Unknown {
				s.Implied++
				s.apply(p, Failed)
			}
		}
		// Every candidate containing the filter is pruned.
		for _, ci := range s.Set.CandidatesOf(i) {
			if s.Status[ci] == CandidateUnresolved {
				s.Status[ci] = CandidatePruned
			}
		}
	case Passed:
		// Every sub-filter passes too.
		for _, c := range s.Set.Children(i) {
			if s.Outcomes[c] == Unknown {
				s.Implied++
				s.apply(c, Passed)
			}
		}
		// Candidates whose top filter passed are confirmed.
		for _, ci := range s.Set.CandidatesOf(i) {
			if s.Status[ci] == CandidateUnresolved && s.Set.Top[ci] == i {
				s.Status[ci] = CandidateConfirmed
			}
		}
	}
}

// Confirmed returns the indexes of confirmed candidates.
func (s *Session) Confirmed() []int {
	var out []int
	for ci, st := range s.Status {
		if st == CandidateConfirmed {
			out = append(out, ci)
		}
	}
	return out
}

// Pruned returns the indexes of pruned candidates.
func (s *Session) Pruned() []int {
	var out []int
	for ci, st := range s.Status {
		if st == CandidatePruned {
			out = append(out, ci)
		}
	}
	return out
}
