// benchsmoke is the scripted micro-benchmark behind the bench-smoke CI
// job. It exercises the three performance layers of the repo on small
// generated matrices and writes a JSON report (BENCH_ci.json) that
// scripts/benchgate compares against the committed bench_baseline.json:
//
//   - kernel: naive CSR vs the §4.2-tuned operator on a Cantilever twin —
//     measured GFlop/s for both (informational: absolute numbers track the
//     runner's hardware) plus the deterministic footprint saving (gated).
//   - serving: examples/serve-loadgen's comparison in miniature — batched
//     vs unbatched closed-loop serving of an LP twin (the batched:unbatched
//     ratio is gated against a conservative floor).
//   - sharding: the K=4 cluster of internal/server over in-process
//     members — modeled bandwidth-bound aggregate speedup (deterministic,
//     gated) with bitwise parity against single-node serving enforced as a
//     hard failure.
//   - routing: the 2-fast/1-slow K=3 fleet under round-robin vs
//     least-loaded — modeled bandwidth-bound throughput of each policy on
//     the registered band placement (deterministic; the speedup is gated).
//   - symmetry: a symmetrized Cantilever twin served from upper-triangle
//     (SymCSR) storage vs its general-CSR twin — the modeled matrix-stream
//     ratio (deterministic, gated at ≈0.5) with numerical agreement
//     enforced as a hard failure.
//   - mutation: the batched serving workload against a clean LP twin vs
//     the same twin carrying a live ~1.5%-dirty-row delta overlay
//     (recompaction held off) — the throughput ratio is gated against a
//     committed floor, with bitwise parity against a from-scratch rebuild
//     enforced as a hard failure.
//   - observability: the batched serving workload with the default
//     instrumentation (histograms + 1-in-16 trace sampling) vs ObsSample=0
//     (layer off, no hot-path timestamps) — the throughput ratio is gated
//     against a committed floor encoding the ≤2% overhead budget.
//
// Refresh the baseline with:
//
//	go run ./scripts/benchsmoke -out bench_baseline.json
//
// then review the diff before committing: deterministic metrics should
// move only when the modeled traffic or tuner genuinely changed, and
// wall-clock floors should stay conservative (see README "benchmark
// gate").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	spmv "repro"
	"repro/internal/machine"
	"repro/internal/matrix/delta"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/traffic"
)

// Metric mirrors scripts/benchgate's schema.
type Metric struct {
	Value        float64 `json:"value"`
	Unit         string  `json:"unit,omitempty"`
	Gated        bool    `json:"gated"`
	HigherBetter bool    `json:"higher_better"`
}

// Report mirrors scripts/benchgate's schema.
type Report struct {
	Schema  int               `json:"schema"`
	Host    string            `json:"host,omitempty"`
	Metrics map[string]Metric `json:"metrics"`
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// timeSweeps returns the best-of-three median time per y += A·x sweep.
func timeSweeps(op *spmv.Operator, x []float64, sweeps int) time.Duration {
	rows, _ := op.Dims()
	y := make([]float64, rows)
	times := make([]time.Duration, 3)
	for t := range times {
		t0 := time.Now()
		for s := 0; s < sweeps; s++ {
			if err := op.MulAdd(y, x); err != nil {
				log.Fatal(err)
			}
		}
		times[t] = time.Since(t0) / time.Duration(sweeps)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[1]
}

// kernelMetrics benchmarks naive vs tuned operators (cmd/spmv-bench's
// measured-kernel layer, reduced to a smoke check).
func kernelMetrics(metrics map[string]Metric) {
	m, err := spmv.GenerateSuite("FEM/Cantilever", 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	naive, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		log.Fatal(err)
	}
	tuned, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		log.Fatal(err)
	}
	_, cols := m.Dims()
	x := randVec(cols, 3)
	flops := float64(2 * m.NNZ())
	tn := timeSweeps(naive, x, 10)
	tt := timeSweeps(tuned, x, 10)
	metrics["kernel_naive_gflops"] = Metric{Value: flops / tn.Seconds() / 1e9, Unit: "GFlop/s"}
	metrics["kernel_tuned_gflops"] = Metric{Value: flops / tt.Seconds() / 1e9, Unit: "GFlop/s"}
	metrics["kernel_tuned_speedup"] = Metric{Value: tn.Seconds() / tt.Seconds(), Unit: "x", HigherBetter: true}
	metrics["tuned_footprint_savings"] = Metric{
		Value: tuned.Savings(), Unit: "frac", Gated: true, HigherBetter: true,
	}
}

// serveThroughput drives the serving subsystem closed-loop and returns
// wall req/s (examples/serve-loadgen in miniature).
func serveThroughput(cfg server.Config, clients, requests int) float64 {
	s := server.New(cfg)
	defer s.Close()
	info, err := s.RegisterSuite("m", "LP", 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := randVec(info.Cols, int64(g))
			for i := 0; i < requests; i++ {
				if _, err := s.Mul("m", x); err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	wg.Wait()
	return float64(clients*requests) / time.Since(t0).Seconds()
}

func servingMetrics(metrics map[string]Metric) {
	unbatched := server.DefaultConfig()
	unbatched.MaxBatch = 1
	batched := server.DefaultConfig()
	batched.Adaptive = false

	u := serveThroughput(unbatched, 8, 50)
	b := serveThroughput(batched, 8, 50)
	metrics["serve_unbatched_req_s"] = Metric{Value: u, Unit: "req/s"}
	metrics["serve_batched_req_s"] = Metric{Value: b, Unit: "req/s"}
	// Emitted ungated: benchgate enforces only metrics the BASELINE gates,
	// and bench_baseline.json gates this ratio against a hand-set
	// conservative floor. Writing the measured value ungated here keeps a
	// baseline refresh from replacing that floor with one noisy run.
	metrics["serve_batched_speedup"] = Metric{Value: b / u, Unit: "x", HigherBetter: true}
}

// obsOverheadMetrics measures what the observability layer costs the
// serving hot path: the same batched closed-loop workload once with
// DefaultConfig's instrumentation on and once with ObsSample=0. Best of
// three per side so one scheduler hiccup doesn't decide the ratio; the
// ratio itself is emitted ungated (wall-clock) — bench_baseline.json
// gates it against a hand-set conservative floor.
func obsOverheadMetrics(metrics map[string]Metric) {
	on := server.DefaultConfig()
	on.Adaptive = false
	off := on
	off.ObsSample = 0
	best := func(cfg server.Config) float64 {
		var b float64
		for i := 0; i < 3; i++ {
			if v := serveThroughput(cfg, 8, 50); v > b {
				b = v
			}
		}
		return b
	}
	o := best(off)
	i := best(on)
	metrics["serve_obs_off_req_s"] = Metric{Value: o, Unit: "req/s"}
	metrics["serve_obs_on_req_s"] = Metric{Value: i, Unit: "req/s"}
	metrics["obs_overhead_ratio"] = Metric{Value: i / o, Unit: "x", HigherBetter: true}
}

// overlayOverheadMetrics measures what a live delta overlay costs the
// serving hot path: the same batched closed-loop LP workload once clean
// and once carrying a ~1.5%-dirty-row overlay with recompaction disabled
// (the worst steady state a mutated matrix is allowed to serve from —
// past the default threshold the background recompactor folds the log).
// Bitwise parity between the overlay path and a from-scratch rebuild is
// enforced as a hard failure; the throughput ratio is emitted ungated —
// bench_baseline.json gates it against a hand-set conservative floor.
func overlayOverheadMetrics(metrics map[string]Metric) {
	m, err := spmv.GenerateSuite("LP", 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	rows, cols := m.Dims()
	rng := rand.New(rand.NewSource(17))
	n := rows / 64
	if n < 16 {
		n = 16
	}
	deltas := make([]server.Delta, n)
	ops := make([]delta.Op, n)
	for i := range deltas {
		r, c, v := int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64()
		deltas[i] = server.Delta{Op: "set", Row: r, Col: c, Val: v}
		ops[i] = delta.Op{Kind: delta.Set, Row: r, Col: c, Val: v}
	}

	// From-scratch rebuild for the parity check.
	l := delta.NewLog(rows, cols, func(yield func(i, j int32, v float64)) {
		m.Entries(func(i, j int, v float64) { yield(int32(i), int32(j), v) })
	})
	if err := l.Apply(ops); err != nil {
		log.Fatal(err)
	}
	folded := spmv.NewMatrix(rows, cols)
	l.Fold(func(i, j int32, v float64) { _ = folded.Set(int(i), int(j), v) })

	newServer := func(withOverlay bool) *server.Server {
		cfg := server.DefaultConfig()
		cfg.Adaptive = false
		cfg.RecompactThreshold = -1 // hold the overlay live for the whole run
		s := server.New(cfg)
		if _, err := s.Register("m", "LP", m); err != nil {
			log.Fatal(err)
		}
		if withOverlay {
			if _, err := s.Patch("m", deltas); err != nil {
				log.Fatal(err)
			}
		}
		return s
	}

	x := randVec(cols, 19)
	patched := newServer(true)
	got, err := patched.Mul("m", x)
	if err != nil {
		log.Fatal(err)
	}
	rebuild := newServer(false)
	if _, err := rebuild.DeleteMatrix("m"); err != nil {
		log.Fatal(err)
	}
	if _, err := rebuild.Register("m", "LP", folded); err != nil {
		log.Fatal(err)
	}
	want, err := rebuild.Mul("m", x)
	if err != nil {
		log.Fatal(err)
	}
	rebuild.Close()
	patched.Close()
	for i := range got {
		if got[i] != want[i] {
			log.Fatalf("benchsmoke: overlay serving diverged from the rebuilt matrix at y[%d]", i)
		}
	}

	loop := func(s *server.Server) float64 {
		defer s.Close()
		const clients, requests = 8, 50
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				x := randVec(cols, int64(g))
				for i := 0; i < requests; i++ {
					if _, err := s.Mul("m", x); err != nil {
						log.Fatal(err)
					}
				}
			}(g)
		}
		wg.Wait()
		return float64(clients*requests) / time.Since(t0).Seconds()
	}
	best := func(withOverlay bool) float64 {
		var b float64
		for i := 0; i < 3; i++ {
			if v := loop(newServer(withOverlay)); v > b {
				b = v
			}
		}
		return b
	}
	clean := best(false)
	overlaid := best(true)
	metrics["serve_overlay_off_req_s"] = Metric{Value: clean, Unit: "req/s"}
	metrics["serve_overlay_on_req_s"] = Metric{Value: overlaid, Unit: "req/s"}
	metrics["overlay_overhead_ratio"] = Metric{Value: overlaid / clean, Unit: "x", HigherBetter: true}
}

// schedOverheadMetrics measures what the admission/scheduling layer
// costs a workload that doesn't need it: the same batched closed-loop
// single-tenant run once FIFO and once with the class scheduler enabled
// (unmetered — buckets off, so the cost measured is the priority gate
// and per-class accounting on every request). Best of three per side;
// bench_baseline.json gates the ratio against a hand-set floor.
func schedOverheadMetrics(metrics map[string]Metric) {
	off := server.DefaultConfig()
	off.Adaptive = false
	on := off
	on.Sched = sched.Config{Enabled: true}
	best := func(cfg server.Config) float64 {
		var b float64
		for i := 0; i < 3; i++ {
			if v := serveThroughput(cfg, 8, 50); v > b {
				b = v
			}
		}
		return b
	}
	o := best(off)
	s := best(on)
	metrics["serve_sched_off_req_s"] = Metric{Value: o, Unit: "req/s"}
	metrics["serve_sched_on_req_s"] = Metric{Value: s, Unit: "req/s"}
	metrics["sched_overhead_ratio"] = Metric{Value: s / o, Unit: "x", HigherBetter: true}
}

// pinnedConfig is DefaultConfig with the parallel widths pinned to 1 so
// the tuner's per-thread-block decisions — and with them the modeled
// sweep bytes — do not vary with the runner's core count. The gated
// deterministic metrics must compare equal across CI machines.
func pinnedConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	cfg.Shards = 1
	return cfg
}

// shardingMetrics registers an LP twin on a K=4 in-process cluster,
// enforces bitwise parity with single-node serving, and reports the
// deterministic bandwidth-bound aggregate speedup.
func shardingMetrics(metrics map[string]Metric) {
	const k = 4
	m, err := spmv.GenerateSuite("LP", 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	single := server.New(pinnedConfig())
	defer single.Close()
	info, err := single.Register("m", "LP", m)
	if err != nil {
		log.Fatal(err)
	}

	transports := make([]server.Transport, k)
	for i := range transports {
		ms := server.New(pinnedConfig())
		defer ms.Close()
		transports[i] = server.NewLocalTransport(fmt.Sprintf("node%d", i), ms)
	}
	cluster, err := server.NewCluster(transports, server.ClusterConfig{})
	if err != nil {
		log.Fatal(err)
	}
	sinfo, err := cluster.RegisterSharded("m", "LP", m, k)
	if err != nil {
		log.Fatal(err)
	}

	x := randVec(info.Cols, 11)
	want, err := single.Mul("m", x)
	if err != nil {
		log.Fatal(err)
	}
	got, err := cluster.Mul("m", x)
	if err != nil {
		log.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			log.Fatalf("benchsmoke: K=%d sharded serving diverged from single-node at y[%d]", k, i)
		}
	}

	amd := machine.AMDX2()
	nodeBW := amd.MemCtrl.PerSocketGBs * amd.SustainedBWFracSocket
	speedup := traffic.SustainedSweepRate(nodeBW, sinfo.MaxBandSweepBytes) /
		traffic.SustainedSweepRate(nodeBW, info.SweepBytes)
	metrics["shard_k4_model_speedup"] = Metric{Value: speedup, Unit: "x", Gated: true, HigherBetter: true}
	metrics["shard_k4_max_band_sweep_bytes"] = Metric{
		Value: float64(sinfo.MaxBandSweepBytes), Unit: "B", Gated: true, HigherBetter: false,
	}
	metrics["single_sweep_bytes"] = Metric{
		Value: float64(info.SweepBytes), Unit: "B", Gated: true, HigherBetter: false,
	}
}

// routeSkewMetrics models the routing-policy gate on a skewed fleet: the
// K=3, replicas=2 topology served by two full-speed members and one at a
// quarter of the socket's sustained bandwidth. Round-robin splits every
// band's traffic evenly across its replicas, so the fleet's rate is set
// by the slow member; the least-loaded policy converges on splitting
// each band in proportion to its replicas' bandwidth (in-flight modeled
// bytes drain slower on the slow node, so the router steers away until
// drain rates match). Both rates fall out of the bandwidth-bound model
// applied to the registered topology's real band placement, so the
// speedup is deterministic and gated. examples/shard-loadgen runs the
// measured (wall-clock) twin of this scenario.
func routeSkewMetrics(metrics map[string]Metric) {
	const k = 3
	m, err := spmv.GenerateSuite("LP", 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	transports := make([]server.Transport, k)
	for i := range transports {
		ms := server.New(pinnedConfig())
		defer ms.Close()
		transports[i] = server.NewLocalTransport(fmt.Sprintf("node%d", i), ms)
	}
	cluster, err := server.NewCluster(transports, server.ClusterConfig{
		Replicas: 2, Policy: server.RouteLeastLoaded,
	})
	if err != nil {
		log.Fatal(err)
	}
	sinfo, err := cluster.RegisterSharded("m", "LP", m, k)
	if err != nil {
		log.Fatal(err)
	}

	amd := machine.AMDX2()
	nodeBW := amd.MemCtrl.PerSocketGBs * amd.SustainedBWFracSocket
	bw := map[string]float64{"node0": nodeBW, "node1": nodeBW, "node2": nodeBW / 4}

	// Per-request modeled bytes landing on each member under each policy.
	rrBytes := make(map[string]float64)
	llBytes := make(map[string]float64)
	for _, b := range sinfo.Bands {
		var pool float64
		for _, name := range b.Members {
			pool += bw[name]
		}
		for _, name := range b.Members {
			rrBytes[name] += float64(b.SweepBytes) / float64(len(b.Members))
			llBytes[name] += float64(b.SweepBytes) * bw[name] / pool
		}
	}
	// A member sustaining bw serves at most bw/bytes requests/s; the fleet
	// is bounded by its slowest member.
	fleetRate := func(bytes map[string]float64) float64 {
		rate := 0.0
		for name, by := range bytes {
			if r := traffic.SustainedSweepRate(bw[name], int64(by)); rate == 0 || r < rate {
				rate = r
			}
		}
		return rate
	}
	rr := fleetRate(rrBytes)
	ll := fleetRate(llBytes)
	metrics["route_skew_rr_req_s"] = Metric{Value: rr, Unit: "req/s"}
	metrics["route_skew_ll_req_s"] = Metric{Value: ll, Unit: "req/s"}
	metrics["route_skew_ll_speedup"] = Metric{Value: ll / rr, Unit: "x", Gated: true, HigherBetter: true}
}

// symmetricMetrics registers a symmetrized Cantilever twin both general
// (CSR32) and symmetric (upper-triangle storage), enforces numerical
// agreement, and reports the deterministic matrix-stream ratio — the
// acceptance signal that symmetry halves the streamed bytes.
func symmetricMetrics(metrics map[string]Metric) {
	m, err := spmv.GenerateSuite("FEM/Cantilever", 0.05, 7)
	if err != nil {
		log.Fatal(err)
	}
	sym, err := spmv.Symmetrize(m)
	if err != nil {
		log.Fatal(err)
	}
	symTrue, symFalse := true, false

	gen := server.New(pinnedConfig())
	defer gen.Close()
	ginfo, err := gen.RegisterOpts("m", "cant-sym", sym, server.RegisterOptions{Symmetric: &symFalse})
	if err != nil {
		log.Fatal(err)
	}

	ssrv := server.New(pinnedConfig())
	defer ssrv.Close()
	sinfo, err := ssrv.RegisterOpts("m", "cant-sym", sym, server.RegisterOptions{Symmetric: &symTrue})
	if err != nil {
		log.Fatal(err)
	}
	if !sinfo.Symmetric {
		log.Fatal("benchsmoke: symmetric registration did not select the symmetric operator")
	}

	x := randVec(sinfo.Cols, 13)
	want, err := gen.Mul("m", x)
	if err != nil {
		log.Fatal(err)
	}
	got, err := ssrv.Mul("m", x)
	if err != nil {
		log.Fatal(err)
	}
	for i := range got {
		if d := got[i] - want[i]; d > 1e-9 || d < -1e-9 {
			log.Fatalf("benchsmoke: symmetric serving diverged from general at y[%d] by %g", i, d)
		}
	}

	ratio := float64(sinfo.MatrixBytes) / float64(ginfo.MatrixBytes)
	metrics["sym_matrix_stream_bytes"] = Metric{Value: float64(sinfo.MatrixBytes), Unit: "B"}
	metrics["sym_matrix_stream_ratio"] = Metric{Value: ratio, Unit: "frac", Gated: true, HigherBetter: false}
}

func main() {
	out := flag.String("out", "BENCH_ci.json", "report path")
	flag.Parse()

	metrics := make(map[string]Metric)
	kernelMetrics(metrics)
	servingMetrics(metrics)
	shardingMetrics(metrics)
	routeSkewMetrics(metrics)
	symmetricMetrics(metrics)
	obsOverheadMetrics(metrics)
	schedOverheadMetrics(metrics)
	overlayOverheadMetrics(metrics)

	r := Report{
		Schema:  1,
		Host:    fmt.Sprintf("%s/%s gomaxprocs=%d", runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0)),
		Metrics: metrics,
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mt := metrics[n]
		gate := ""
		if mt.Gated {
			gate = " [gated]"
		}
		fmt.Printf("%-34s %12.4g %s%s\n", n, mt.Value, mt.Unit, gate)
	}
	fmt.Printf("benchsmoke: wrote %s\n", *out)
}
