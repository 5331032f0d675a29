package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prism"
	"prism/api"
	"prism/client"
	"prism/internal/constraint"
	"prism/internal/lang"
	"prism/internal/serve"
	"prism/internal/server"
	"prism/internal/value"
)

const (
	// servedClients is the number of closed-loop clients.
	servedClients = 2
	// servedScripts is the number of distinct session scripts per run.
	servedScripts = 96
	// statelessEvery sends one stateless batch-priority discover after
	// every this many session rounds of a client.
	statelessEvery = 4
	// servedSetupRepeats is how many servers a run boots; setup_s reports
	// the median.
	servedSetupRepeats = 15
	// maxConcurrent pins the admission controller's round budget instead
	// of its GOMAXPROCS-derived default.
	maxConcurrent = 4
)

var servedDatasets = []string{"mondial", "imdb", "nba"}

// servedAbsent names the per-layer metrics the served workload cannot
// measure from outside the server.
var servedAbsent = map[string]string{
	"dataset.build_ms":        "engines build inside the server's registry; see setup_s",
	"discovery.preprocess_ms": "engines build inside the server's registry; see setup_s",
	"colexec.build_ms":        "engines build inside the server's registry; see setup_s",
	"discovery.related_ms":    "the search runs inside the server; the replay is in-process only",
	"graphx.enumerate_ms":     "the search runs inside the server; the replay is in-process only",
	"graphx.candidates":       "the search runs inside the server; the replay is in-process only",
	"filter.decompose_ms":     "the search runs inside the server; the replay is in-process only",
	"filter.filters":          "the search runs inside the server; the replay is in-process only",
	"sched.self_ms":           "the search runs inside the server; the replay is in-process only",
	"sched.implied_frac":      "the search runs inside the server; the replay is in-process only",
	"sqlgen.generate_ms":      "the search runs inside the server; the replay is in-process only",
	"colexec.probes_p1":       "exact counts come from the in-process replay",
	"colexec.preview_queries": "exact counts come from the in-process replay",
}

// sessionStep is one round of a session script.
type sessionStep struct {
	kind string // cold, tighten, loosen, add, remove, revert
	req  api.RefineRequest
	ref  digest
}

// sessionScript is one user's session: a cold full-spec round, then
// deltas, on one data set. The cold spec doubles as a stateless discover.
type sessionScript struct {
	dataset string
	steps   []sessionStep
}

// grid is the client-side state of a session: sample cells as strings,
// the source values behind them, and the parsed spec the server holds.
type grid struct {
	cells [][]string
	vals  [][]value.Value
	spec  *constraint.Spec
}

// scriptGen draws session scripts from ground-truth result rows.
type scriptGen struct {
	rng  *rand.Rand
	engs map[string]*prism.Engine
	rows map[string][]value.Tuple // ground-truth name -> result rows
}

func exactCell(v value.Value) string {
	if v.IsNull() {
		return ""
	}
	return lang.Keyword{Word: v.String()}.String()
}

// looseCell renders v as a range (numbers) or a two-way disjunction with
// another value of the same column (text).
func (g *scriptGen) looseCell(v value.Value, column []value.Value) string {
	if v.IsNull() {
		return ""
	}
	if v.Kind().Numeric() {
		f, _ := v.Float()
		lo, hi := f*0.5, f*1.5
		if lo > hi {
			lo, hi = hi, lo
		}
		if f == 0 {
			lo, hi = -1, 1
		}
		// Formatted here, not with lang.Range.String: that prints large
		// bounds with an exponent ("1.5e+07"), which the parser rejects.
		return "[" + strconv.FormatFloat(lo, 'f', -1, 64) + ", " + strconv.FormatFloat(hi, 'f', -1, 64) + "]"
	}
	for tries := 0; tries < 8; tries++ {
		o := column[g.rng.Intn(len(column))]
		if !o.IsNull() && !o.Equal(v) {
			return lang.Or{Terms: []lang.ValueExpr{lang.Keyword{Word: v.String()}, lang.Keyword{Word: o.String()}}}.String()
		}
	}
	return exactCell(v)
}

// sampleRow draws a result row as a sample: cell c exact when loose(c)
// is false, else loosened.
func (g *scriptGen) sampleRow(rows []value.Tuple, loose func(c int) bool) ([]string, []value.Value) {
	row := rows[g.rng.Intn(len(rows))]
	cells := make([]string, len(row))
	for c, v := range row {
		if loose(c) {
			cells[c] = g.looseCell(v, columnOf(rows, c))
		} else {
			cells[c] = exactCell(v)
		}
	}
	return cells, row
}

func columnOf(rows []value.Tuple, c int) []value.Value {
	out := make([]value.Value, len(rows))
	for i, r := range rows {
		out[i] = r[c]
	}
	return out
}

// reference runs spec at Parallelism 1 in process; the round must succeed.
func reference(ctx context.Context, eng *prism.Engine, spec *constraint.Spec) (digest, error) {
	rep, err := eng.Discover(ctx, spec, prism.Options{Parallelism: 1, IncludeResults: true, ResultLimit: 10})
	if err != nil {
		return digest{}, err
	}
	if rep.TimedOut {
		return digest{}, fmt.Errorf("reference round timed out")
	}
	return mappingDigest(rep.Mappings), nil
}

// sessionOps is the refinement sequence of every session: the seed picks
// the rows and cells, the sequence itself is fixed so that every seed
// sends the same mix of cheap and dear rounds.
var sessionOps = []string{"tighten", "add", "loosen", "revert", "remove", "loosen"}

// script draws session script idx on dataset. Scripts rotate over the
// data set's ground truths, and half the cells of each sample row start
// loose, in a checkerboard that alternates between scripts.
func (g *scriptGen) script(ctx context.Context, dataset string, idx int) (sessionScript, error) {
	eng := g.engs[dataset]
	truths := servedTruths(dataset)
	truth := truths[(idx/len(servedDatasets))%len(truths)]
	rows := g.rows[truth.Name]
	if rows == nil {
		res, err := eng.Database().Execute(truth.Plan)
		if err != nil {
			return sessionScript{}, err
		}
		rows = res.Rows
		g.rows[truth.Name] = rows
	}
	checker := func(r int) func(c int) bool {
		return func(c int) bool { return (r+c+idx)%2 == 1 }
	}

	var gr grid
	for r := 0; r < 2; r++ {
		cells, vals := g.sampleRow(rows, checker(r))
		gr.cells = append(gr.cells, cells)
		gr.vals = append(gr.vals, vals)
	}
	spec, err := constraint.ParseGrid(3, gr.cells, nil)
	if err != nil {
		return sessionScript{}, err
	}
	gr.spec = spec
	ref, err := reference(ctx, eng, spec)
	if err != nil {
		return sessionScript{}, fmt.Errorf("cold spec of %s: %w", truth.Name, err)
	}
	wire, err := api.EncodeSpec(spec)
	if err != nil {
		return sessionScript{}, err
	}
	sc := sessionScript{dataset: dataset}
	sc.steps = append(sc.steps, sessionStep{kind: "cold", req: api.RefineRequest{Spec: wire}, ref: ref})

	var undo api.Delta
	for _, kind := range sessionOps {
		var step sessionStep
		for tries := 0; ; tries++ {
			if tries == 20 {
				return sessionScript{}, fmt.Errorf("no valid %s step for %s after %d tries", kind, truth.Name, tries)
			}
			delta, inverse, added, ok := g.nextDelta(kind, &gr, rows, undo, checker(len(gr.cells)))
			if !ok {
				continue
			}
			d := constraint.Delta{RemoveSamples: delta.RemoveSamples, AddSamples: delta.AddSamples}
			for _, u := range delta.UpdateCells {
				d.UpdateCells = append(d.UpdateCells, constraint.CellUpdate{Row: u.Row, Col: u.Col, Cell: u.Cell})
			}
			next, err := d.Apply(gr.spec)
			if err != nil {
				continue
			}
			ref, err := reference(ctx, eng, next)
			if err != nil {
				continue
			}
			gr.apply(delta, added)
			gr.spec = next
			undo = inverse
			step = sessionStep{kind: kind, req: api.RefineRequest{Delta: &delta}, ref: ref}
			break
		}
		sc.steps = append(sc.steps, step)
	}
	return sc, nil
}

// nextDelta draws one refinement of the given kind: tighten a loose cell,
// loosen an exact one, add a sample row, remove the last one, or revert
// the previous step (undo). It returns the delta, its inverse and the
// source values of a row it adds; ok is false when the draw does not fit
// the grid.
func (g *scriptGen) nextDelta(kind string, gr *grid, rows []value.Tuple, undo api.Delta, loose func(c int) bool) (delta, inverse api.Delta, added []value.Value, ok bool) {
	switch kind {
	case "revert":
		return undo, api.Delta{}, nil, true
	case "add":
		cells, vals := g.sampleRow(rows, loose)
		return api.Delta{AddSamples: [][]string{cells}}, api.Delta{RemoveSamples: []int{len(gr.cells)}}, vals, true
	case "remove":
		last := len(gr.cells) - 1
		return api.Delta{RemoveSamples: []int{last}}, api.Delta{AddSamples: [][]string{slices.Clone(gr.cells[last])}}, nil, last > 0
	}
	r, c := g.rng.Intn(len(gr.cells)), g.rng.Intn(3)
	v, old := gr.vals[r][c], gr.cells[r][c]
	exact := exactCell(v)
	cell := exact
	if kind == "loosen" {
		if old != exact {
			return api.Delta{}, api.Delta{}, nil, false
		}
		cell = g.looseCell(v, columnOf(rows, c))
	}
	if v.IsNull() || cell == old {
		return api.Delta{}, api.Delta{}, nil, false
	}
	return api.Delta{UpdateCells: []api.CellUpdate{{Row: r, Col: c, Cell: cell}}},
		api.Delta{UpdateCells: []api.CellUpdate{{Row: r, Col: c, Cell: old}}}, nil, true
}

// apply mirrors delta on the client-side grid; added holds the source
// values of a row it adds.
func (gr *grid) apply(d api.Delta, added []value.Value) {
	for _, u := range d.UpdateCells {
		gr.cells[u.Row][u.Col] = u.Cell
	}
	for _, r := range d.RemoveSamples {
		gr.cells = slices.Delete(gr.cells, r, r+1)
		gr.vals = slices.Delete(gr.vals, r, r+1)
	}
	for _, row := range d.AddSamples {
		gr.cells = append(gr.cells, slices.Clone(row))
		gr.vals = append(gr.vals, added)
	}
}

// countingTransport counts response body bytes.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// servedEnv is one in-process server on a loopback port.
type servedEnv struct {
	hs        *http.Server
	done      chan struct{}
	url       string
	transport *http.Transport
}

// warmRequests are the fixed one-per-data-set requests that make the
// registry build each engine during set-up.
func warmRequests() []api.DiscoverRequest {
	return []api.DiscoverRequest{
		{Database: "mondial", NumColumns: 3, Samples: [][]string{{"California || Nevada", "Lake Tahoe", ""}},
			Metadata: []string{"", "", "DataType=='decimal' AND MinValue>='0'"}},
		{Database: "imdb", NumColumns: 2, Samples: [][]string{{"Inception", "Leonardo DiCaprio"}}},
		{Database: "nba", NumColumns: 2, Samples: [][]string{{"Lakers", "Los Angeles"}}},
	}
}

// boot starts a server and sends one warm-up round per data set.
func boot(ctx context.Context, executor string) (*servedEnv, error) {
	srv := server.New()
	srv.Admission = serve.Config{MaxConcurrent: maxConcurrent}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &servedEnv{
		hs:        &http.Server{Handler: srv.Handler()},
		done:      make(chan struct{}),
		url:       "http://" + ln.Addr().String(),
		transport: &http.Transport{MaxIdleConnsPerHost: 2 * servedClients},
	}
	go func() {
		defer close(env.done)
		_ = env.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	if err := env.warm(ctx, executor); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (e *servedEnv) warm(ctx context.Context, executor string) error {
	cl, err := e.client()
	if err != nil {
		return err
	}
	for _, req := range warmRequests() {
		req.Parallelism = parallelism
		req.Executor = executor
		if _, err := cl.Discover(ctx, req); err != nil {
			return fmt.Errorf("warm-up on %s: %w", req.Database, err)
		}
	}
	return nil
}

func (e *servedEnv) client() (*client.Client, error) {
	return e.clientVia(e.transport, "")
}

func (e *servedEnv) clientVia(rt http.RoundTripper, priority string) (*client.Client, error) {
	opts := []client.Option{client.WithHTTPClient(&http.Client{Transport: rt})}
	if priority != "" {
		opts = append(opts, client.WithPriority(priority))
	}
	return client.New(e.url, opts...)
}

func (e *servedEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a drain timeout only delays exit
	<-e.done
	e.transport.CloseIdleConnections()
}

// servedRound is one timed round as a client saw it.
type servedRound struct {
	kind        string
	traced      bool
	latMs       float64
	serverMs    float64
	bytes       int64
	hits, miss  int
	validations int
}

// phase is one timed closed-loop phase of the served workload.
type phase struct {
	rounds []servedRound
	wall   time.Duration
	alloc  uint64
	stats  [2]*api.StatsResponse
}

func (p *phase) latencies(keep func(servedRound) bool) []float64 {
	var out []float64
	for _, r := range p.rounds {
		if keep(r) {
			out = append(out, r.latMs)
		}
	}
	return out
}

func untracedRound(r servedRound) bool { return !r.traced }

func tracedRound(r servedRound) bool { return r.traced }

func refineRound(r servedRound) bool { return r.kind != "cold" && r.kind != "stateless" }

func untracedRefine(r servedRound) bool { return !r.traced && refineRound(r) }

// drive runs the closed loop: each client takes the next script, plays it
// through a fresh session, and starts another until d has passed. With
// trace set, every other pass over the scripts (sessions and the stateless
// rounds they send) runs on the timing executor, so traced and untraced
// rounds see the same inputs on the same machine.
func drive(ctx context.Context, env *servedEnv, scripts []sessionScript, trace bool, d time.Duration, cfg runConfig, out *outcome, mu *sync.Mutex) (*phase, error) {
	stats, err := env.client()
	if err != nil {
		return nil, err
	}
	p := &phase{}
	if p.stats[0], err = stats.Stats(ctx); err != nil {
		return nil, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	perClient := make([][]servedRound, servedClients)
	before := totalAlloc()
	start := time.Now()
	for c := 0; c < servedClients; c++ {
		ct := &countingTransport{base: env.transport}
		sessions, err := env.clientVia(ct, "")
		if err != nil {
			return nil, err
		}
		batch, err := env.clientVia(ct, api.PriorityBatch)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := 0
			fail := func(format string, args ...any) {
				mu.Lock()
				out.failed++
				fmt.Fprintf(cfg.log, format+"\n", args...)
				mu.Unlock()
			}
			record := func(kind string, traced bool, ref digest, call func() (*api.DiscoverResponse, error)) {
				b0 := ct.bytes.Load()
				t := time.Now()
				resp, err := call()
				lat := ms(time.Since(t))
				mu.Lock()
				out.attempted++
				mu.Unlock()
				if err != nil {
					fail("%s round failed: %v", kind, err)
					return
				}
				var dg digest
				for _, m := range resp.Mappings {
					dg.add(m.SQL)
				}
				if resp.TimedOut || dg != ref {
					mu.Lock()
					out.incorrect++
					mu.Unlock()
					fail("%s round: mapping set differs from the reference (timed out %t)", kind, resp.TimedOut)
				}
				r := servedRound{kind: kind, traced: traced, latMs: lat, serverMs: float64(resp.ElapsedMS), bytes: ct.bytes.Load() - b0, validations: resp.Validations}
				if resp.Cache != nil {
					r.hits, r.miss = resp.Cache.Hits, resp.Cache.Misses
				}
				perClient[c] = append(perClient[c], r)
			}
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				sc := scripts[i%len(scripts)]
				traced := trace && (i/len(scripts))%2 == 1
				executor := ""
				if traced {
					executor = timedExecutorName
				}
				mu.Lock()
				out.attempted++
				mu.Unlock()
				sess, err := sessions.CreateSession(ctx, sc.dataset)
				if err != nil {
					fail("creating a session: %v", err)
					continue
				}
				for _, st := range sc.steps {
					req := st.req
					req.Parallelism = parallelism
					req.Executor = executor
					record(st.kind, traced, st.ref, func() (*api.DiscoverResponse, error) { return sess.Refine(ctx, req) })
					ops++
					if ops%statelessEvery == 0 {
						other := scripts[(i+1)%len(scripts)]
						sreq := api.DiscoverRequest{Database: other.dataset, Spec: other.steps[0].req.Spec, Parallelism: parallelism, Executor: executor}
						record("stateless", traced, other.steps[0].ref, func() (*api.DiscoverResponse, error) { return batch.Discover(ctx, sreq) })
					}
				}
				mu.Lock()
				out.attempted++
				mu.Unlock()
				if err := sess.Close(ctx); err != nil {
					fail("closing a session: %v", err)
				}
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.alloc = totalAlloc() - before
	for _, rs := range perClient {
		p.rounds = append(p.rounds, rs...)
	}
	if p.stats[1], err = stats.Stats(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

func runServedSessions(cfg runConfig, out *outcome) error {
	ctx := context.Background()
	for k, v := range servedAbsent {
		out.absent[k] = v
	}

	var setups []float64
	var env *servedEnv
	for i := 0; i < servedSetupRepeats; i++ {
		if env != nil {
			env.close()
			env = nil
		}
		start := time.Now()
		e, err := boot(ctx, "")
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		env = e
	}
	defer env.close()
	heapMB := heapLiveMB()

	// Reference engines and session scripts, built outside the timing.
	gen := &scriptGen{rng: rand.New(rand.NewSource(cfg.seed)), engs: map[string]*prism.Engine{}, rows: map[string][]value.Tuple{}}
	for _, name := range servedDatasets {
		eng, err := prism.Open(name)
		if err != nil {
			return err
		}
		gen.engs[name] = eng
		db := eng.Database()
		rows := 0
		for _, t := range db.Schema().Tables() {
			rows += db.NumRows(t.Name)
		}
		out.fact("dataset %s rows=%d", name, rows)
	}
	refStart := time.Now()
	n := servedScripts
	if cfg.smoke {
		n = 3
	}
	scripts := make([]sessionScript, n)
	for i := range scripts {
		sc, err := gen.script(ctx, servedDatasets[i%len(servedDatasets)], i)
		if err != nil {
			return err
		}
		scripts[i] = sc
	}
	out.fact("session scripts %d of %d rounds; references at parallelism 1: %.2fs", n, len(sessionOps)+1, time.Since(refStart).Seconds())
	out.fact("clients %d, admission max concurrent %d, a stateless batch discover every %d session rounds", servedClients, maxConcurrent, statelessEvery)

	var mu sync.Mutex
	if !cfg.trace {
		p, err := drive(ctx, env, scripts, false, cfg.seconds, cfg, out, &mu)
		if err != nil {
			return err
		}
		all := p.latencies(untracedRound)
		out.set("setup_s", median(setups), len(setups))
		out.set("heap_live_mb", heapMB, 1)
		out.set("round_p50_ms", median(all), len(all))
		out.set("round_p95_ms", quantile(all, 0.95), len(all))
		out.set("rounds_per_s", float64(len(all))/p.wall.Seconds(), len(all))
		out.set("alloc_kb_per_round", float64(p.alloc)/1024/float64(len(all)), len(all))
		ref := p.latencies(refineRound)
		out.fact("rounds %d (refine %d) over %.2fs; refine p50 %.3f ms, p95 %.3f ms", len(all), len(ref), p.wall.Seconds(), median(ref), quantile(ref, 0.95))
		return nil
	}

	if err := env.warm(ctx, timedExecutorName); err != nil {
		return err
	}
	rec := &recorder{}
	current.Store(rec)
	p, err := drive(ctx, env, scripts, true, cfg.seconds, cfg, out, &mu)
	current.Store(nil)
	if err != nil {
		return err
	}

	var serverMs, clientMs, bytes float64
	var traced, hits, misses, refineVals, refines int
	for _, r := range p.rounds {
		if !r.traced {
			continue
		}
		traced++
		serverMs += r.serverMs
		clientMs += r.latMs
		bytes += float64(r.bytes)
		if refineRound(r) {
			hits += r.hits
			misses += r.miss
			refineVals += r.validations
			refines++
		}
	}
	nr := float64(traced)
	untracedRefines := p.latencies(untracedRefine)
	out.set("session.cache_hit_frac", ratio(float64(hits), float64(hits+misses)), refines)
	out.set("session.validations_per_refine", ratio(float64(refineVals), float64(refines)), refines)
	out.set("session.refine_p50_ms", median(untracedRefines), len(untracedRefines))
	out.set("session.refine_p95_ms", quantile(untracedRefines, 0.95), len(untracedRefines))
	out.set("server.round_ms", serverMs/nr, traced)
	out.set("server.overhead_ms", (clientMs-serverMs)/nr, traced)
	out.set("server.response_kb", bytes/1024/nr, traced)
	out.set("serve.admitted", float64(p.stats[1].Admission.Admitted-p.stats[0].Admission.Admitted), len(p.rounds))
	out.set("serve.shed", float64(p.stats[1].Admission.Shed-p.stats[0].Admission.Shed), len(p.rounds))
	out.set("colexec.probes", float64(rec.probes.calls.Load())/nr, traced)
	out.set("colexec.probe_busy_ms", ms(time.Duration(rec.probes.busyNs.Load()))/nr, traced)
	out.set("colexec.rows_scanned", float64(rec.probes.rows.Load())/nr, traced)
	out.set("colexec.preview_ms", ms(time.Duration(rec.previews.busyNs.Load()))/nr, traced)
	out.set("colexec.preview_rows", float64(rec.previews.rows.Load())/nr, traced)
	out.set("round.unaccounted_frac", ratio(clientMs-serverMs, clientMs), traced)
	out.set("trace.overhead_frac", median(p.latencies(tracedRound))/median(p.latencies(untracedRound))-1, traced)
	out.fact("traced rounds %d (refine %d) and untraced rounds %d over %.2fs, alternating by pass over the scripts", traced, refines, len(p.rounds)-traced, p.wall.Seconds())
	return nil
}
