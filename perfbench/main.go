// Command perfbench is Prism's end-to-end benchmark. One invocation runs
// one workload (or all of them with --workload all) for a fixed time,
// checks every round's mapping set against a Parallelism-1 reference, and
// prints a human-readable report followed by one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same inputs are replayed through each layer's public functions and the
// metrics are the per-layer ones. See README.md for the workloads and the
// metric map. Run it from the repository root:
//
//	bash perfbench/run.sh --workload lowres-sql --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// parallelism is the validation parallelism of every timed round. It is
// fixed rather than GOMAXPROCS so that figures carry across machines.
const parallelism = 2

// metricDef names one reported metric; the lists below mirror
// BENCHMARK.json (a test keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_p50_ms", "ms"},
	{"round_p95_ms", "ms"},
	{"rounds_per_s", "1/s"},
	{"alloc_kb_per_round", "kB"},
	{"heap_live_mb", "MB"},
}

var perLayer = []metricDef{
	{"dataset.build_ms", "ms"},
	{"discovery.preprocess_ms", "ms"},
	{"colexec.build_ms", "ms"},
	{"discovery.related_ms", "ms/round"},
	{"graphx.enumerate_ms", "ms/round"},
	{"graphx.candidates", "count/cycle"},
	{"filter.decompose_ms", "ms/round"},
	{"filter.filters", "count/cycle"},
	{"sched.self_ms", "ms/round"},
	{"sched.implied_frac", "ratio"},
	{"colexec.probes", "count/round"},
	{"colexec.probes_p1", "count/cycle"},
	{"colexec.probe_busy_ms", "ms/round"},
	{"colexec.rows_scanned", "count/round"},
	{"colexec.preview_queries", "count/cycle"},
	{"colexec.preview_ms", "ms/round"},
	{"colexec.preview_rows", "count/round"},
	{"sqlgen.generate_ms", "ms/round"},
	{"session.cache_hit_frac", "ratio"},
	{"session.validations_per_refine", "count/round"},
	{"session.refine_p50_ms", "ms"},
	{"session.refine_p95_ms", "ms"},
	{"server.round_ms", "ms/round"},
	{"server.overhead_ms", "ms/round"},
	{"server.response_kb", "kB/round"},
	{"serve.admitted", "count"},
	{"serve.shed", "count"},
	{"round.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// smoke shrinks data sets and spec lists so all workloads finish in
	// seconds; the benchmark's own tests use it.
	smoke bool
	log   io.Writer
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	// incorrect counts correctness violations: a mapping set that differs
	// from the reference, a missing ground truth, or an exact count that
	// changed between repeats.
	incorrect int
	values    map[string]float64
	samples   map[string]int
	// absent explains, per metric, why a workload does not measure it.
	absent map[string]string
	facts  []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}, absent: map[string]string{}}
}

func (o *outcome) set(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

func (o *outcome) fact(format string, args ...any) {
	o.facts = append(o.facts, fmt.Sprintf(format, args...))
}

// workload is one named traffic mix.
type workloadDef struct {
	name, why string
	run       func(cfg runConfig, out *outcome) error
}

var workloads = []workloadDef{
	{"paper-previews", "the demo user at high and mid resolution: previews and validation over Mondial x10 do the work", runPaperPreviews},
	{"lowres-sql", "the CLI user at the lowest resolution: enumeration, decomposition and scheduling do the work", runLowresSQL},
	{"served-sessions", "two demo users refining sessions through the HTTP tier, admission and the session cache", runServedSessions},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: paper-previews, lowres-sql, served-sessions or all")
	seed := fl.Int64("seed", 1, "seed of the generated inputs")
	seconds := fl.Float64("seconds", 10, "measured time per run, in seconds")
	trace := fl.Int("trace", 0, "0 reports end-to-end metrics, 1 replays the rounds layer by layer and reports per-layer metrics")
	smoke := fl.Bool("smoke", false, "tiny data sets and spec lists, for the benchmark's own tests")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var selected []workloadDef
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		smoke:   *smoke,
		log:     stderr,
	}
	printFacts(stdout, cfg)

	combined := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, w := range selected {
		out := newOutcome()
		fmt.Fprintf(stdout, "== workload %s (%s)\n", w.name, w.why)
		if err := w.run(cfg, out); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res := report(stdout, w.name, cfg, out)
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "/" + k
			}
			combined.Metrics[k] = v
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !combined.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

// report prints one workload's metrics with unit and sample count and
// returns its JSON result.
func report(w io.Writer, name string, cfg runConfig, out *outcome) resultJSON {
	for _, f := range out.facts {
		fmt.Fprintf(w, "fact %s: %s\n", name, f)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   out.incorrect == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		switch {
		case ok:
			fmt.Fprintf(w, "metric %-32s %14.4f %-12s n=%d\n", d.name, v, d.unit, out.samples[d.name])
		case out.absent[d.name] != "":
			fmt.Fprintf(w, "metric %-32s %14s %-12s absent: %s\n", d.name, "0", d.unit, out.absent[d.name])
		default:
			fmt.Fprintf(w, "metric %-32s %14s %-12s absent: not measured by this workload\n", d.name, "0", d.unit)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	failFrac := 0.0
	if out.attempted > 0 {
		failFrac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "metric %-32s %14.4f %-12s n=%d (failed %d, incorrect %d)\n", "fail_frac", failFrac, "ratio", out.attempted, out.failed, out.incorrect)
	return res
}

// printFacts records the run's environment: cores, GOMAXPROCS, toolchain,
// revision and the fixed settings every workload shares.
func printFacts(w io.Writer, cfg runConfig) {
	fmt.Fprintf(w, "fact nproc: %d\n", runtime.NumCPU())
	fmt.Fprintf(w, "fact gomaxprocs: %d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "fact go: %s %s/%s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "fact commit: %s\n", commit())
	fmt.Fprintf(w, "fact source_sha256: %s\n", sourceDigest("."))
	fmt.Fprintf(w, "fact seed: %d\n", cfg.seed)
	fmt.Fprintf(w, "fact seconds: %g\n", cfg.seconds.Seconds())
	fmt.Fprintf(w, "fact trace: %t\n", cfg.trace)
	fmt.Fprintf(w, "fact smoke: %t\n", cfg.smoke)
	fmt.Fprintf(w, "fact parallelism: %d\n", parallelism)
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git work tree.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built in a git work tree; see source_sha256)"
}

// sourceDigest hashes every Go source and go.mod under root, so runs of
// the same code can be matched without version control.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown (" + err.Error() + ")"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
