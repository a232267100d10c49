// Command perfbench is the repository's benchmark. It runs one workload
// against an in-process server, checks every output, and prints one JSON
// result as the last line of standard output:
//
//	go run . --workload mul-http-lp --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the workload runs in quarters, untraced and
// traced alternately (their ratio is the tracing overhead), and a
// probe suite times calls into each layer's public functions; the metrics
// are the per-layer ones and the spans are written under .bench_build.
// The exit code is non-zero when any output is wrong.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	spmv "repro"
)

//go:embed spec.json
var specJSON []byte

// cmdRetuneInterval is spmv-serve's default -retune-interval.
const cmdRetuneInterval = 30 * time.Second

// outDir holds the spans and the full report of each run, inside the
// checkout the benchmark runs from.
const outDir = ".bench_build/perfbench-out"

// spec is the benchmark's fixed parameters (spec.json). They are part of
// the benchmark's definition and do not change between commits.
type spec struct {
	HeldOutSeed   int64 `json:"held_out_seed"`
	LLCMiB        int   `json:"llc_mib"`
	TriadArrayMiB int   `json:"triad_array_mib"`
	SetupRepeats  int   `json:"setup_repeats"`
	WarmupMS      int   `json:"warmup_ms"`
	MulHTTP       struct {
		Clients int `json:"clients"`
	} `json:"mul_http_lp"`
	Solve struct {
		Tol      float64 `json:"tol"`
		RHS      int     `json:"rhs"`
		MaxIters int     `json:"max_iters"`
	} `json:"solve_cg_fem"`
	Mutate struct {
		LadderPerS    []float64 `json:"ladder_per_s"`
		ReferencePerS float64   `json:"reference_per_s"`
		P99LimitMS    float64   `json:"p99_limit_ms"`
		PatchPerS     float64   `json:"patch_per_s"`
		PatchDeltas   int       `json:"patch_deltas"`
		Vectors       int       `json:"vectors"`
		MaxInFlight   int       `json:"max_in_flight"`
	} `json:"mutate_open_fem"`
	Probe struct {
		Repeats       int     `json:"repeats"`
		ServeSeconds  float64 `json:"serve_seconds"`
		ServePatchPer float64 `json:"serve_patch_per_s"`
	} `json:"probe"`
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one run's shared state: parameters, operation counts, and the
// output mismatches found.
type env struct {
	spec      spec
	seed      int64
	attempted atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	errs   []string
	report map[string]any // everything printed, for the report file
}

// fail records one failed or wrong operation.
func (e *env) fail(format string, args ...any) {
	e.failed.Add(1)
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.errs) < 20 {
		e.errs = append(e.errs, fmt.Sprintf(format, args...))
	}
}

// record adds a value to the report file; a non-finite number, which JSON
// cannot hold, is recorded as null.
func (e *env) record(key string, v any) {
	if f, ok := v.(float64); ok && (math.IsNaN(f) || math.IsInf(f, 0)) {
		v = nil
	}
	e.mu.Lock()
	e.report[key] = v
	e.mu.Unlock()
}

// note records a value and prints it.
func (e *env) note(key string, v any) {
	e.record(key, v)
	switch x := v.(type) {
	case float64:
		fmt.Printf("  %-34s %.6g\n", key, x)
	default:
		b, _ := json.Marshal(v)
		fmt.Printf("  %-34s %s\n", key, b)
	}
}

// sample is what one measurement window of a workload yields: the
// headline figures of its primary operation. latency is the mean for the
// closed loops, where Little's law ties it to rate, and the median from
// due time for the open loop. Tail percentiles are printed and recorded
// by each workload but not bounded: on a 2 vCPU VM they follow the host's
// scheduling stalls more than the program.
type sample struct {
	latency, rate float64
}

// workload is one of the benchmark's traffic mixes.
type workload interface {
	// prepare generates the inputs and reference results (untimed).
	prepare(e *env) error
	// setup starts a server, registers the inputs and checks a first
	// response (a wrong one counts as failed); it returns the time that
	// took and leaves the server up.
	setup(e *env) (time.Duration, error)
	// measure runs the workload for d with spans recorded in tr (nil: off).
	measure(e *env, d time.Duration, tr *tracer) (sample, error)
	// verify checks the outputs that can only be checked once quiet.
	verify(e *env) error
	// teardown stops the server setup started.
	teardown()
	// registered is the matrix the workload registers, for the
	// registration probes.
	registered() (name string, m *spmv.Matrix)
}

var workloads = map[string]func() workload{
	"mul-http-lp":     func() workload { return &mulHTTP{} },
	"solve-cg-fem":    func() workload { return &solveCG{} },
	"mutate-open-fem": func() workload { return &mutateOpen{} },
}

func main() {
	name := flag.String("workload", "", "workload: mul-http-lp, solve-cg-fem or mutate-open-fem")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	e := &env{seed: seed, report: make(map[string]any)}
	if err := json.Unmarshal(specJSON, &e.spec); err != nil {
		return fmt.Errorf("spec.json: %w", err)
	}
	w := mk()
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v gomaxprocs=%d held_out_seed=%d\n",
		name, seed, seconds, traced, runtime.GOMAXPROCS(0), e.spec.HeldOutSeed)
	e.report["workload"], e.report["seed"], e.report["traced"] = name, seed, traced
	if err := w.prepare(e); err != nil {
		return err
	}
	window := time.Duration(seconds * float64(time.Second))
	var metrics map[string]metric
	var err error
	if traced {
		metrics, err = tracedRun(e, w, name, window)
	} else {
		metrics, err = untracedRun(e, w, window)
	}
	if err != nil {
		return err
	}
	return finish(e, name, traced, metrics)
}

// untracedRun measures the end-to-end metrics. Set-up runs SetupRepeats
// times, each after a collection clears the previous one's garbage, and
// reports the median; the last server stays up for the run. The peak RSS
// is read before the post-run checks build their own references.
func untracedRun(e *env, w workload, window time.Duration) (map[string]metric, error) {
	n := max(1, e.spec.SetupRepeats)
	setups := make([]float64, n)
	for i := range setups {
		runtime.GC()
		d, err := w.setup(e)
		if err != nil {
			return nil, err
		}
		setups[i] = d.Seconds()
		if i < n-1 {
			w.teardown()
		}
	}
	defer w.teardown()
	s, err := w.measure(e, window, nil)
	if err != nil {
		return nil, err
	}
	rss := rssPeakMiB()
	if err := w.verify(e); err != nil {
		return nil, err
	}
	e.note("setup_s.all", setups)
	m := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"op_latency_ms": {s.latency, "ms"},
		"op_rate":       {s.rate, "1/s"},
		"rss_peak_mib":  {rss, "MiB"},
	}
	return m, nil
}

// tracedRun measures the window in quarters on one server, untraced,
// traced, traced, untraced, so drift over the run cancels out of the
// tracing overhead; then it runs the layer probes.
func tracedRun(e *env, w workload, name string, window time.Duration) (map[string]metric, error) {
	if _, err := w.setup(e); err != nil {
		return nil, err
	}
	tr := newTracer()
	var plain, withSpans float64
	for _, spans := range []*tracer{nil, tr, tr, nil} {
		s, err := w.measure(e, window/4, spans)
		if err != nil {
			w.teardown()
			return nil, err
		}
		if spans == nil {
			plain += s.latency
		} else {
			withSpans += s.latency
		}
	}
	verr := w.verify(e)
	w.teardown()
	if verr != nil {
		return nil, verr
	}
	// Per-layer self time of the replay, per traced request.
	replaySpans := len(tr.spans)
	roots := 0
	for _, s := range tr.spans {
		if s.Parent == 0 {
			roots++
		}
	}
	self := selfTime(tr.spans)
	for layer := range self {
		self[layer] /= float64(max(roots, 1))
	}
	e.note("trace.replay_self_ms_per_request", self)
	m := map[string]metric{
		"trace.overhead_ratio": {withSpans / plain, "x"},
		"go.gc_cpu_frac":       {gcCPUFraction(), "frac"},
	}
	if err := probes(e, w, tr, m); err != nil {
		return nil, err
	}
	m["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	e.note("trace.replay_spans", float64(replaySpans))
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, e.seed))
	if err := writeJSON(path, tr.spans); err != nil {
		return nil, err
	}
	e.note("trace.spans_file", path)
	return m, nil
}

// finish prints the metrics and the result line, writes the report file,
// and fails the run when any output was wrong.
func finish(e *env, name string, traced bool, metrics map[string]metric) error {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("metrics:")
	var unmeasured []string
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
		if v := metrics[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no Inf or NaN: NaN means no sample, +Inf a failed
			// request's latency. Either way the run is not correct.
			metrics[n] = metric{math.MaxFloat64, metrics[n].Unit}
			unmeasured = append(unmeasured, n)
		}
	}
	attempted, failed := e.attempted.Load(), e.failed.Load()
	fmt.Printf("  %-34s %14.6g failed/attempted (%d/%d)\n", "fail_frac", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, msg := range e.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
	e.report["metrics"], e.report["attempted"], e.report["failed"], e.report["errors"] = metrics, attempted, failed, e.errs
	kind := map[bool]string{false: "e2e", true: "trace"}[traced]
	path := filepath.Join(outDir, fmt.Sprintf("report-%s-seed%d-%s.json", name, e.seed, kind))
	if err := writeJSON(path, e.report); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report not written:", err)
	} else {
		fmt.Println("report:", path)
	}
	res := result{Correct: failed == 0 && len(unmeasured) == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed or returned wrong output: %s", failed, attempted, strings.Join(e.errs, "; "))
	}
	if len(unmeasured) > 0 {
		return fmt.Errorf("no valid value for %s", strings.Join(unmeasured, ", "))
	}
	return nil
}

// writeJSON stores v as indented JSON at path, creating its directory.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
