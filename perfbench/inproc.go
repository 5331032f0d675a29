package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"prism"
	"prism/internal/constraint"
	"prism/internal/exec"
	"prism/internal/filter"
	"prism/internal/graphx"
	"prism/internal/mem"
	"prism/internal/sched"
	"prism/internal/sqlgen"
)

// setupRepeats is how many times a run builds its engine; setup_s and the
// setup layers report the median.
const setupRepeats = 21

// inprocWorkload is a closed loop of one caller calling Engine.Discover in
// the benchmark's own process.
type inprocWorkload struct {
	dataset  func(smoke bool) (*mem.Database, error)
	specs    func(db *mem.Database, seed int64, smoke bool) ([]caseSpec, error)
	previews bool
	// absent names the per-layer metrics this workload cannot measure.
	absent map[string]string
}

var notServed = map[string]string{
	"session.cache_hit_frac":         "no sessions in process (served-sessions only)",
	"session.validations_per_refine": "no sessions in process (served-sessions only)",
	"session.refine_p50_ms":          "no sessions in process (served-sessions only)",
	"session.refine_p95_ms":          "no sessions in process (served-sessions only)",
	"server.round_ms":                "no server in process (served-sessions only)",
	"server.overhead_ms":             "no server in process (served-sessions only)",
	"server.response_kb":             "no server in process (served-sessions only)",
	"serve.admitted":                 "no server in process (served-sessions only)",
	"serve.shed":                     "no server in process (served-sessions only)",
}

func runPaperPreviews(cfg runConfig, out *outcome) error {
	return inprocWorkload{dataset: mondialX10, specs: paperPreviewSpecs, previews: true, absent: notServed}.run(cfg, out)
}

func runLowresSQL(cfg runConfig, out *outcome) error {
	return inprocWorkload{dataset: mondialDefault, specs: lowresSpecs, previews: false, absent: notServed}.run(cfg, out)
}

// setupTimes splits one engine build into its layers.
type setupTimes struct{ total, build, preprocess, executor time.Duration }

// setup builds the data set, preprocesses the engine (prism.Open: Analyze,
// bayes.Train, graphx.New) and builds the default columnar executor.
func (w inprocWorkload) setup(smoke bool) (*prism.Engine, setupTimes, error) {
	t0 := time.Now()
	db, err := w.dataset(smoke)
	if err != nil {
		return nil, setupTimes{}, err
	}
	t1 := time.Now()
	eng, err := prism.Open(db.Name, prism.WithDatabase(db))
	if err != nil {
		return nil, setupTimes{}, err
	}
	t2 := time.Now()
	if _, err := eng.SampleRows(db.Schema().Tables()[0].Name, 1); err != nil {
		return nil, setupTimes{}, err
	}
	t3 := time.Now()
	return eng, setupTimes{total: t3.Sub(t0), build: t1.Sub(t0), preprocess: t2.Sub(t1), executor: t3.Sub(t2)}, nil
}

// exactCounts are the per-spec counts a later change may claim against.
type exactCounts struct{ candidates, filters, previews, probes int }

func (w inprocWorkload) run(cfg runConfig, out *outcome) error {
	ctx := context.Background()
	for k, v := range w.absent {
		out.absent[k] = v
	}

	// Set-up, several times; the last engine is the one measured.
	var eng *prism.Engine
	var total, build, pre, ex []float64
	repeats := setupRepeats
	if cfg.smoke {
		repeats = 2
	}
	for i := 0; i < repeats; i++ {
		eng = nil
		runtime.GC()
		e, st, err := w.setup(cfg.smoke)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		eng = e
		total = append(total, st.total.Seconds())
		build = append(build, ms(st.build))
		pre = append(pre, ms(st.preprocess))
		ex = append(ex, ms(st.executor))
	}
	heapMB := heapLiveMB()

	db := eng.Database()
	rows := 0
	var perTable []string
	for _, t := range db.Schema().Tables() {
		rows += db.NumRows(t.Name)
		perTable = append(perTable, fmt.Sprintf("%s=%d", t.Name, db.NumRows(t.Name)))
	}
	out.fact("dataset %s rows=%d (%s)", db.Name, rows, strings.Join(perTable, " "))

	specs, err := w.specs(db, cfg.seed, cfg.smoke)
	if err != nil {
		return err
	}
	out.fact("specs %d per cycle", len(specs))
	opts := prism.Options{Parallelism: parallelism, IncludeResults: w.previews, ResultLimit: 10}
	refOpts := opts
	refOpts.Parallelism = 1

	// Reference: every spec at Parallelism 1, before any timing. Each must
	// succeed and contain its ground truth.
	refStart := time.Now()
	refs := make([]digest, len(specs))
	for i, c := range specs {
		rep, err := eng.Discover(ctx, c.spec, refOpts)
		out.attempted++
		if err != nil || rep.TimedOut {
			out.failed++
			out.incorrect++
			fmt.Fprintf(cfg.log, "reference %s failed: %v (timed out %t)\n", c.name, err, rep != nil && rep.TimedOut)
			continue
		}
		refs[i] = mappingDigest(rep.Mappings)
		if c.truth != nil && !hasPlan(rep.Mappings, *c.truth) {
			out.incorrect++
			fmt.Fprintf(cfg.log, "reference %s lacks its ground truth %s\n", c.name, sqlgen.Generate(*c.truth))
		}
	}
	out.fact("reference at parallelism 1: %.2fs", time.Since(refStart).Seconds())

	// Warm-up at the measured parallelism: lazy worker pools, caches.
	for _, c := range specs[:min(3, len(specs))] {
		if _, err := eng.Discover(ctx, c.spec, opts); err != nil {
			return fmt.Errorf("warm-up %s: %w", c.name, err)
		}
	}

	if !cfg.trace {
		out.set("setup_s", median(total), len(total))
		out.set("heap_live_mb", heapMB, 1)
		lr := w.loop(ctx, eng, specs, refs, opts, cfg.seconds, cfg, out)
		out.set("round_p50_ms", median(lr.lat), len(lr.lat))
		out.set("round_p95_ms", quantile(lr.lat, 0.95), len(lr.lat))
		out.set("rounds_per_s", float64(len(lr.lat))/lr.wall.Seconds(), len(lr.lat))
		out.set("alloc_kb_per_round", float64(lr.alloc)/1024/float64(len(lr.lat)), len(lr.lat))
		out.fact("rounds %d in %d cycles over %.2fs", len(lr.lat), lr.cycles, lr.wall.Seconds())
		return nil
	}

	out.set("dataset.build_ms", median(build), len(build))
	out.set("discovery.preprocess_ms", median(pre), len(pre))
	out.set("colexec.build_ms", median(ex), len(ex))
	return w.traced(ctx, eng, specs, refs, opts, cfg, out)
}

// loopResult is one timed closed loop over whole cycles of the spec list.
type loopResult struct {
	lat    []float64 // per-round latency, ms
	wall   time.Duration
	alloc  uint64
	cycles int
}

// loop calls Discover over whole cycles of specs until d has passed.
func (w inprocWorkload) loop(ctx context.Context, eng *prism.Engine, specs []caseSpec, refs []digest, opts prism.Options, d time.Duration, cfg runConfig, out *outcome) loopResult {
	lr := loopResult{lat: make([]float64, 0, 1<<16)}
	before := totalAlloc()
	start := time.Now()
	for time.Since(start) < d || lr.cycles == 0 {
		w.cycle(ctx, eng, specs, refs, opts, cfg, out, &lr)
	}
	lr.wall = time.Since(start)
	lr.alloc = totalAlloc() - before
	return lr
}

// cycle calls Discover once per spec, timing each call and checking its
// mapping set against the reference.
func (w inprocWorkload) cycle(ctx context.Context, eng *prism.Engine, specs []caseSpec, refs []digest, opts prism.Options, cfg runConfig, out *outcome, lr *loopResult) {
	for i, c := range specs {
		t := time.Now()
		rep, err := eng.Discover(ctx, c.spec, opts)
		lr.lat = append(lr.lat, ms(time.Since(t)))
		out.attempted++
		switch {
		case err != nil || rep.TimedOut:
			out.failed++
			fmt.Fprintf(cfg.log, "round %s failed: %v\n", c.name, err)
		case mappingDigest(rep.Mappings) != refs[i]:
			out.failed++
			out.incorrect++
			fmt.Fprintf(cfg.log, "round %s: mapping set differs from the reference\n", c.name)
		}
	}
	lr.cycles++
}

// traced alternates untraced cycles with cycles replayed layer by layer
// until the run's time has passed, so both see the same machine, and
// checks the exact counts at Parallelism 1 before and after.
func (w inprocWorkload) traced(ctx context.Context, eng *prism.Engine, specs []caseSpec, refs []digest, opts prism.Options, cfg runConfig, out *outcome) error {
	tex, err := exec.New(timedExecutorName, eng.Database())
	if err != nil {
		return err
	}
	rp := &replayer{eng: eng, graph: graphx.New(eng.Database().Schema()), ex: tex, previews: w.previews}

	counts := make([]exactCounts, len(specs))
	p1pass := func(into []exactCounts) {
		for i, c := range specs {
			rt, err := rp.round(ctx, c.spec, 1)
			out.attempted++
			if err != nil {
				out.failed++
				out.incorrect++
				fmt.Fprintf(cfg.log, "replay %s at parallelism 1 failed: %v\n", c.name, err)
				continue
			}
			if rt.dig != refs[i] {
				out.failed++
				out.incorrect++
				fmt.Fprintf(cfg.log, "replay %s: mapping set differs from Engine.Discover\n", c.name)
			}
			into[i] = rt.counts
		}
	}
	p1pass(counts)

	base := loopResult{lat: make([]float64, 0, 1<<16)}
	var sum roundTrace
	var lat []float64
	start := time.Now()
	for time.Since(start) < cfg.seconds || base.cycles == 0 {
		w.cycle(ctx, eng, specs, refs, opts, cfg, out, &base)
		for i, c := range specs {
			rt, err := rp.round(ctx, c.spec, parallelism)
			out.attempted++
			if err != nil {
				out.failed++
				fmt.Fprintf(cfg.log, "replay %s failed: %v\n", c.name, err)
				continue
			}
			lat = append(lat, ms(time.Duration(rt.wall)))
			want := counts[i]
			want.probes = rt.counts.probes // probes drift at parallelism > 1
			if rt.dig != refs[i] || rt.counts != want {
				out.failed++
				out.incorrect++
				fmt.Fprintf(cfg.log, "replay %s: mapping set or counts %+v differ from %+v\n", c.name, rt.counts, counts[i])
			}
			sum.addUp(rt)
		}
	}

	again := make([]exactCounts, len(specs))
	p1pass(again)
	for i := range specs {
		if again[i] != counts[i] {
			out.incorrect++
			fmt.Fprintf(cfg.log, "exact counts of %s changed between repeats: %+v then %+v\n", specs[i].name, counts[i], again[i])
		}
	}

	n := len(lat)
	perRound := func(ns int64) float64 { return ms(time.Duration(ns)) / float64(n) }
	out.set("discovery.related_ms", perRound(sum.related), n)
	out.set("graphx.enumerate_ms", perRound(sum.enumerate), n)
	out.set("filter.decompose_ms", perRound(sum.decompose), n)
	out.set("sched.self_ms", perRound(sum.schedSelf), n)
	out.set("sched.implied_frac", ratio(float64(sum.implied), float64(sum.validations+sum.implied)), n)
	out.set("colexec.probes", float64(sum.probes)/float64(n), n)
	out.set("colexec.probe_busy_ms", perRound(sum.probeBusy), n)
	out.set("colexec.rows_scanned", float64(sum.rowsScanned)/float64(n), n)
	out.set("colexec.preview_ms", perRound(sum.previewBusy), n)
	out.set("colexec.preview_rows", float64(sum.previewRows)/float64(n), n)
	out.set("sqlgen.generate_ms", perRound(sum.sqlgen), n)
	out.set("round.unaccounted_frac", ratio(float64(sum.wall-sum.covered()), float64(sum.wall)), n)
	out.set("trace.overhead_frac", median(lat)/median(base.lat)-1, n)

	var cycle exactCounts
	fmt.Fprintf(cfg.log, "exact counts per spec (candidates filters previews probes@p1):\n")
	for i, c := range counts {
		cycle.candidates += c.candidates
		cycle.filters += c.filters
		cycle.previews += c.previews
		cycle.probes += c.probes
		fmt.Fprintf(cfg.log, "  %-44s %6d %6d %5d %6d\n", specs[i].name, c.candidates, c.filters, c.previews, c.probes)
	}
	out.set("graphx.candidates", float64(cycle.candidates), len(specs))
	out.set("filter.filters", float64(cycle.filters), len(specs))
	out.set("colexec.preview_queries", float64(cycle.previews), len(specs))
	out.set("colexec.probes_p1", float64(cycle.probes), len(specs))
	out.fact("traced rounds %d and untraced rounds %d in %d alternating cycles each", n, len(base.lat), base.cycles)
	return nil
}

// replayer re-runs a discovery round through the public functions of each
// layer, in the order discovery's round body calls them, timing each call.
type replayer struct {
	eng      *prism.Engine
	graph    *graphx.Graph
	ex       exec.Executor // the timing wrapper
	previews bool
}

// roundTrace is what one replayed round spent, in nanoseconds, per layer.
type roundTrace struct {
	wall, related, enumerate, decompose, schedule, schedSelf, sqlgen int64
	probeBusy, previewBusy                                           int64
	probes, rowsScanned, previewRows                                 int64
	validations, implied                                             int
	counts                                                           exactCounts
	dig                                                              digest
}

// covered is the part of the round's wall time spent inside timed layer
// calls. The top-level calls run one after another, so their sum is their
// union; probes run inside the scheduler's call and are not added again.
func (t roundTrace) covered() int64 {
	return t.related + t.enumerate + t.decompose + t.schedule + t.sqlgen + t.previewBusy
}

func (t *roundTrace) addUp(o roundTrace) {
	t.wall += o.wall
	t.related += o.related
	t.enumerate += o.enumerate
	t.decompose += o.decompose
	t.schedule += o.schedule
	t.schedSelf += o.schedSelf
	t.sqlgen += o.sqlgen
	t.probeBusy += o.probeBusy
	t.previewBusy += o.previewBusy
	t.probes += o.probes
	t.rowsScanned += o.rowsScanned
	t.previewRows += o.previewRows
	t.validations += o.validations
	t.implied += o.implied
}

// round replays one round with the given validation parallelism.
func (r *replayer) round(ctx context.Context, spec *constraint.Spec, par int) (roundTrace, error) {
	rec := &recorder{keepProbes: true}
	current.Store(rec)
	defer current.Store(nil)
	var t roundTrace

	start := since()
	related, err := r.eng.RelatedColumns(spec)
	t1 := since()
	if err != nil {
		return t, err
	}
	cands, err := graphx.Enumerate(r.graph, related, graphx.EnumerateOptions{
		MaxTables:           4,
		MaxCandidates:       5000,
		RequireUsefulLeaves: true,
	})
	t2 := since()
	if err != nil {
		return t, err
	}
	set, err := filter.DecomposeContext(ctx, cands)
	t3 := since()
	if err != nil {
		return t, err
	}
	runner := &sched.Runner{
		DB:        r.ex,
		Spec:      spec,
		Set:       set,
		Estimator: &sched.BayesEstimator{Model: r.eng.Model(), Spec: spec},
		Options:   sched.Options{TimeLimit: 60 * time.Second, Parallelism: par},
	}
	t4 := since()
	res, err := runner.RunContext(ctx)
	t5 := since()
	if err != nil {
		return t, err
	}
	if res.TimedOut {
		return t, fmt.Errorf("scheduler timed out")
	}

	confirmed := slices.Clone(res.Confirmed)
	slices.SortFunc(confirmed, func(i, j int) int {
		a, b := set.Candidates[i], set.Candidates[j]
		if c := a.Tree.Size() - b.Tree.Size(); c != 0 {
			return c
		}
		return strings.Compare(a.Canonical(), b.Canonical())
	})
	for _, ci := range confirmed {
		plan := set.Candidates[ci].Plan()
		plan.Distinct = true
		g0 := since()
		sql := sqlgen.Generate(plan)
		t.sqlgen += since() - g0
		t.dig.add(sql)
		if r.previews {
			if _, err := r.ex.ExecuteWith(plan, exec.ExecOptions{Limit: 10}); err != nil {
				return t, err
			}
		}
	}
	t.wall = since() - start

	t.related = t1 - start
	t.enumerate = t2 - t1
	t.decompose = t3 - t2
	t.schedule = t5 - t4
	t.schedSelf = t.schedule - unionNanos(rec.probeIvs)
	t.probes = rec.probes.calls.Load()
	t.probeBusy = rec.probes.busyNs.Load()
	t.rowsScanned = rec.probes.rows.Load()
	t.previewBusy = rec.previews.busyNs.Load()
	t.previewRows = rec.previews.rows.Load()
	t.validations = res.Validations
	t.implied = res.Implied
	t.counts = exactCounts{
		candidates: len(cands),
		filters:    set.NumFilters(),
		previews:   int(rec.previews.calls.Load()),
		probes:     int(t.probes),
	}
	return t, nil
}

// heapLiveMB is the heap in use after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// totalAlloc is the process-wide count of bytes allocated so far.
func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// mappingDigest is the order-independent identity of a round's mapping
// SQL set.
func mappingDigest(ms []prism.Mapping) digest {
	var d digest
	for i := range ms {
		d.add(ms[i].SQL)
	}
	return d
}

// hasPlan reports whether some mapping computes the same result set as
// truth (equal canonical plans, both DISTINCT).
func hasPlan(ms []prism.Mapping, truth exec.Plan) bool {
	truth.Distinct = true
	want := truth.Canonical()
	for _, m := range ms {
		if m.Plan.Canonical() == want {
			return true
		}
	}
	return false
}
