package server

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	spmv "repro"
)

// testMatrix builds a small deterministic sparse matrix.
func testMatrix(t testing.TB, rows, cols, nnz int, seed int64) *spmv.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := spmv.NewMatrix(rows, cols)
	for n := 0; n < nnz; n++ {
		if err := m.Set(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	// Dense main diagonal keeps every row populated.
	for i := 0; i < min(rows, cols); i++ {
		if err := m.Set(i, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func testVector(cols int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// reference computes y = A·x through the public serial API.
func reference(t testing.TB, m *spmv.Matrix, x []float64) []float64 {
	t.Helper()
	op, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	y, err := op.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// TestRegistryCompileCount: Stats.Compiles counts every operator build —
// one per registration, one per recompaction, one per evaluated re-tune
// candidate — and serving itself compiles nothing.
func TestRegistryCompileCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecompactThreshold = -1 // recompact only on demand
	cfg.RetuneMinRequests = 1
	s := New(cfg)
	defer s.Close()
	m := testMatrix(t, 200, 200, 2000, 1)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	wantCompiles := func(stage string, want uint64) {
		t.Helper()
		if got := s.Stats().Compiles; got != want {
			t.Fatalf("%s: %d compiles, want %d", stage, got, want)
		}
	}
	wantCompiles("register", 1)

	x := testVector(200, 2)
	for i := 0; i < 4; i++ {
		if _, err := s.Mul("a", x); err != nil {
			t.Fatal(err)
		}
	}
	wantCompiles("serving", 1)

	if _, err := s.Patch("a", mutDeltas(rand.New(rand.NewSource(3)), 200, 200, 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.Recompact("a"); err != nil {
		t.Fatal(err)
	}
	wantCompiles("recompaction", 2)

	// A drifted workload: the re-tuner evaluates one candidate.
	e, err := s.Registry().Get("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e.work.record(8)
	}
	s.RetuneOnce()
	if st := s.Stats(); st.RetuneEvals != 1 {
		t.Fatalf("%d re-tune evaluations, want 1", st.RetuneEvals)
	}
	wantCompiles("re-tune candidate", 3)

	// Duplicate registration is rejected before compiling anything.
	if _, err := s.Register("a", "test", m); err == nil {
		t.Error("duplicate id accepted")
	}
	wantCompiles("duplicate registration", 3)
}

// TestBatcherFusesConcurrentRequests is the acceptance demonstration: 4
// concurrent single-vector Mul calls coalesce into ONE fused sweep and
// every caller gets the same answer as independent execution.
func TestBatcherFusesConcurrentRequests(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 4
	cfg.BatchWindow = 5 * time.Second // generous: the 4th join triggers execution
	cfg.Adaptive = false
	s := New(cfg)
	defer s.Close()

	m := testMatrix(t, 300, 280, 4000, 2)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}

	const k = 4
	xs := make([][]float64, k)
	wants := make([][]float64, k)
	for v := range xs {
		xs[v] = testVector(280, int64(v+10))
		wants[v] = reference(t, m, xs[v])
	}

	got := make([][]float64, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	wg.Add(k)
	for v := 0; v < k; v++ {
		go func(v int) {
			defer wg.Done()
			got[v], errs[v] = s.Mul("a", xs[v])
		}(v)
	}
	wg.Wait()
	for v := 0; v < k; v++ {
		if errs[v] != nil {
			t.Fatalf("request %d: %v", v, errs[v])
		}
		if d := maxAbsDiff(got[v], wants[v]); d > 1e-10 {
			t.Errorf("request %d: batched result differs from independent Mul by %g", v, d)
		}
	}

	st := s.Stats()
	if st.Sweeps != 1 {
		t.Errorf("%d sweeps for %d concurrent requests, want 1 fused sweep", st.Sweeps, k)
	}
	if st.FusedWidthHist[k] != 1 {
		t.Errorf("fused-width histogram %v, want one width-%d sweep", st.FusedWidthHist[:k+1], k)
	}
	if st.Requests != k || st.FusedRequests != k {
		t.Errorf("requests=%d fusedRequests=%d, want %d/%d", st.Requests, st.FusedRequests, k, k)
	}
	if st.SavedBytes <= 0 {
		t.Error("fusion reported no matrix-stream bytes saved")
	}
	if st.MatrixBytes <= 0 || st.SourceBytes <= 0 || st.DestBytes <= 0 {
		t.Errorf("traffic counters not populated: %+v", st)
	}
}

// TestSingleRequestFallsBack checks the sparse-traffic path: a lone
// request runs as a width-1 sweep on the fused path, counted as a single
// fallback in both the fallback counter and the width histogram.
func TestSingleRequestFallsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Adaptive = true
	s := New(cfg)
	defer s.Close()
	m := testMatrix(t, 100, 100, 800, 3)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	x := testVector(100, 5)
	want := reference(t, m, x)
	y, err := s.Mul("a", x)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(y, want); d > 1e-10 {
		t.Errorf("single request off by %g", d)
	}
	st := s.Stats()
	if st.SingleFallbacks != 1 || st.FusedWidthHist[1] != 1 {
		t.Errorf("lone request not counted as a width-1 sweep: %+v", st)
	}
}

func TestMulValidation(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	if _, err := s.Mul("nope", make([]float64, 3)); err == nil {
		t.Error("unknown matrix accepted")
	}
	m := testMatrix(t, 10, 10, 20, 4)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mul("a", make([]float64, 9)); err == nil {
		t.Error("wrong-length x accepted")
	}
	if _, err := s.Register("", "test", testMatrix(t, 5, 5, 5, 5)); err != nil {
		t.Error("generated-id registration failed:", err)
	}
}

// TestConcurrentHammer drives one matrix from many goroutines with the
// adaptive batcher on, verifying every result against its reference. Run
// with -race in CI; widths vary run to run but correctness must not.
func TestConcurrentHammer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 8
	cfg.BatchWindow = 100 * time.Microsecond
	cfg.Adaptive = true
	s := New(cfg)
	defer s.Close()

	m := testMatrix(t, 400, 350, 6000, 6)
	if _, err := s.Register("hot", "test", m); err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	iters := 25
	if testing.Short() {
		iters = 8
	}
	xs := make([][]float64, goroutines)
	wants := make([][]float64, goroutines)
	for g := range xs {
		xs[g] = testVector(350, int64(100+g))
		wants[g] = reference(t, m, xs[g])
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				y, err := s.Mul("hot", xs[g])
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
					return
				}
				if d := maxAbsDiff(y, wants[g]); d > 1e-10 {
					errCh <- fmt.Errorf("goroutine %d iter %d: off by %g", g, i, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := s.Stats()
	if want := uint64(goroutines * iters); st.Requests != want {
		t.Errorf("requests=%d, want %d", st.Requests, want)
	}
	if st.Requests != st.FusedRequests+st.SingleFallbacks {
		t.Errorf("request accounting leak: %+v", st)
	}
	t.Logf("hammer: %d requests in %d sweeps (mean fused width %.2f), %.1f MB matrix stream saved",
		st.Requests, st.Sweeps, st.MeanFusedWidth(), float64(st.SavedBytes)/1e6)
}

// benchServer measures closed-loop serving throughput at the given client
// concurrency; batching on or off is the only difference between the two
// benchmarks below.
func benchServer(b *testing.B, batched bool) {
	cfg := DefaultConfig()
	if batched {
		// Width cap matches the client concurrency so a full batch
		// triggers execution without waiting out the linger window.
		cfg.MaxBatch = 8
		cfg.BatchWindow = 200 * time.Microsecond
		cfg.Adaptive = false
	} else {
		cfg.MaxBatch = 1
	}
	s := New(cfg)
	defer s.Close()
	// LP (wide aspect, huge source vector) is the suite matrix where the
	// register-blocked per-request kernel gains least, so the fused sweep's
	// matrix-stream amortization shows through clearly (§5.1).
	m, err := spmv.GenerateSuite("LP", 0.1, 9)
	if err != nil {
		b.Fatal(err)
	}
	info, err := s.Register("bench", "LP", m)
	if err != nil {
		b.Fatal(err)
	}
	x := testVector(info.Cols, 11)
	b.SetParallelism(8) // 8*GOMAXPROCS concurrent clients
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Mul("bench", x); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := s.Stats()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(st.Requests)/secs, "req/s")
	}
	b.ReportMetric(st.MeanFusedWidth(), "fused-width")
}

func BenchmarkServeUnbatched(b *testing.B) { benchServer(b, false) }
func BenchmarkServeBatched(b *testing.B)   { benchServer(b, true) }
