package server

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	spmv "repro"
)

// mulBits fetches y = A·x through the server and returns it for bitwise
// comparison.
func mulBits(t *testing.T, s *Server, id string, x []float64) []float64 {
	t.Helper()
	y, err := s.Mul(id, x)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// burst fires width concurrent Muls of the same inputs and returns the
// results in input order. A start barrier makes the requests land inside
// one batch window so the batcher fuses them.
func burst(t *testing.T, s *Server, id string, xs [][]float64) [][]float64 {
	t.Helper()
	start := make(chan struct{})
	out := make([][]float64, len(xs))
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	wg.Add(len(xs))
	for v := range xs {
		go func(v int) {
			defer wg.Done()
			<-start
			out[v], errs[v] = s.Mul(id, xs[v])
		}(v)
	}
	close(start)
	wg.Wait()
	for v, err := range errs {
		if err != nil {
			t.Fatalf("burst request %d: %v", v, err)
		}
	}
	return out
}

// TestRetunePromotionDeterministicBitwise is the acceptance scenario: a
// matrix registered under a width-1 workload shifts to width-16 bursts,
// the re-tuner detects the drift, promotes a workload-tuned operator, and
// every response after the copy-on-write swap is bitwise identical to
// before it. The promotion is
// visible in /v1/stats counters and GET /v1/matrices/{id}/tuning.
func TestRetunePromotionDeterministicBitwise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.Workers = 2
	cfg.Shards = 2
	cfg.MaxBatch = 16
	cfg.BatchWindow = 5 * time.Millisecond
	cfg.Adaptive = true
	cfg.RetuneMinRequests = 16
	s := New(cfg)
	defer s.Close()

	m := testMatrix(t, 300, 280, 6000, 21) // cols < 65536: 16-bit indices available
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	e, err := s.Registry().Get("a")
	if err != nil {
		t.Fatal(err)
	}
	preBytes := e.cur.Load().matrixBytes

	// Phase 1: a width-1 workload. Capture the served bits.
	xs := make([][]float64, 16)
	for v := range xs {
		xs[v] = testVector(280, int64(500+v))
	}
	lone := make([][]float64, len(xs))
	for v := range xs {
		lone[v] = mulBits(t, s, "a", xs[v])
	}
	if got := s.RetuneOnce(); got != 0 {
		t.Fatalf("undrifted workload promoted %d operators, want 0", got)
	}

	// Phase 2: the workload shifts to wide bursts.
	for round := 0; round < 6; round++ {
		got := burst(t, s, "a", xs)
		for v := range got {
			if !sameBits(got[v], lone[v]) {
				t.Fatalf("round %d lane %d: fused bits differ from lone bits pre-promotion", round, v)
			}
		}
	}
	rep, err := s.Tuning("a")
	if err != nil {
		t.Fatal(err)
	}
	if rep.ObservedMedianWidth < 8 {
		t.Fatalf("observed median width %d after wide bursts, want >= 8", rep.ObservedMedianWidth)
	}

	if got := s.RetuneOnce(); got != 1 {
		t.Fatalf("drifted workload promoted %d operators, want 1", got)
	}
	sv := e.cur.Load()
	if sv.gen != 1 || !sv.wide || sv.sym {
		t.Fatalf("post-promotion snapshot gen=%d wide=%v sym=%v, want gen=1 wide=true sym=false", sv.gen, sv.wide, sv.sym)
	}
	if sv.matrixBytes >= preBytes {
		t.Errorf("promotion did not shrink the modeled matrix stream: %d -> %d bytes", preBytes, sv.matrixBytes)
	}
	st := s.Stats()
	if st.RetunePromotions != 1 || st.RetuneEvals != 1 {
		t.Errorf("stats evals=%d promotions=%d, want 1/1", st.RetuneEvals, st.RetunePromotions)
	}

	// Responses must be bitwise identical across the swap: lone requests
	// and fused bursts both reproduce the pre-promotion bits exactly.
	for v := range xs {
		if got := mulBits(t, s, "a", xs[v]); !sameBits(got, lone[v]) {
			t.Fatalf("lane %d: lone bits changed across the operator swap", v)
		}
	}
	got := burst(t, s, "a", xs)
	for v := range got {
		if !sameBits(got[v], lone[v]) {
			t.Fatalf("lane %d: fused bits changed across the operator swap", v)
		}
	}

	// The tuning endpoint reports the promotion.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/matrices/a/tuning")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/matrices/a/tuning: status %d", resp.StatusCode)
	}
	var httpRep TuningReport
	if err := json.NewDecoder(resp.Body).Decode(&httpRep); err != nil {
		t.Fatal(err)
	}
	if httpRep.Generation != 1 || !httpRep.Wide {
		t.Errorf("endpoint report generation=%d wide=%v, want 1/true", httpRep.Generation, httpRep.Wide)
	}
	var promotedEvents int
	for _, ev := range httpRep.Events {
		if ev.Decision == "promoted" {
			promotedEvents++
			if ev.CandidateBytesPerRequest >= ev.IncumbentBytesPerRequest {
				t.Errorf("promoted event did not improve modeled bytes/request: %+v", ev)
			}
		}
	}
	if promotedEvents != 1 {
		t.Errorf("endpoint reports %d promoted events, want 1", promotedEvents)
	}
	if resp404, err := srv.Client().Get(srv.URL + "/v1/matrices/nope/tuning"); err != nil {
		t.Fatal(err)
	} else {
		resp404.Body.Close()
		if resp404.StatusCode != 404 {
			t.Errorf("tuning endpoint for unknown matrix: status %d, want 404", resp404.StatusCode)
		}
	}
}

// TestRetuneRejectionWhenNoImprovement: when the candidate cannot beat
// the incumbent, the drifted entry is evaluated but the incumbent keeps
// serving. With more than 65536 columns the tuner cannot reduce indices
// to 16 bits, so the CSR-family candidate is CSR32 again: nothing to win.
func TestRetuneRejectionWhenNoImprovement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.MaxBatch = 8
	cfg.BatchWindow = 5 * time.Millisecond
	cfg.RetuneMinRequests = 8
	s := New(cfg)
	defer s.Close()
	const cols = 70000 // > 1<<16
	m := testMatrix(t, 200, cols, 1500, 5)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 8)
	for v := range xs {
		xs[v] = testVector(cols, int64(v))
	}
	for round := 0; round < 4; round++ {
		burst(t, s, "a", xs)
	}
	if got := s.RetuneOnce(); got != 0 {
		t.Fatalf("promoted %d operators with nothing to win, want 0", got)
	}
	st := s.Stats()
	if st.RetuneEvals != 1 || st.RetuneRejections != 1 {
		t.Errorf("stats evals=%d rejections=%d, want 1/1", st.RetuneEvals, st.RetuneRejections)
	}
	e, _ := s.Registry().Get("a")
	if sv := e.cur.Load(); sv.gen != 0 {
		t.Errorf("rejected candidate bumped the serving generation to %d", sv.gen)
	}
	// Pacing: an immediate re-scan must not re-evaluate (no fresh signal).
	if s.RetuneOnce(); s.Stats().RetuneEvals != 1 {
		t.Errorf("re-scan without fresh requests re-evaluated the entry")
	}
	// And fresh traffic at the same (already-rejected) median width must
	// not recompile the identical candidate either.
	for round := 0; round < 4; round++ {
		burst(t, s, "a", xs)
	}
	if s.RetuneOnce(); s.Stats().RetuneEvals != 1 {
		t.Errorf("unchanged median width re-evaluated an already-rejected candidate")
	}
}

// TestRegisterDimensionGuards pins the registration sanity checks: row
// counts may exceed stored entries only within the 64x empty-row
// allowance, both dimensions are capped absolutely, and a shard-band
// shape (few rows, full column width, few entries) stays registrable.
func TestRegisterDimensionGuards(t *testing.T) {
	s := New(Config{Threads: 1, Workers: 1, MaxBatch: 1})
	defer s.Close()
	reg := s.Registry()

	band := spmv.NewMatrix(4000, 500000) // a coordinator's row band: wide, sparse
	for i := 0; i < 4000; i++ {
		if err := band.Set(i, i*100, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Register("band", "band", band); err != nil {
		t.Errorf("legitimate shard-band shape rejected: %v", err)
	}

	blowup := spmv.NewMatrix(50_000_000, 10)
	_ = blowup.Set(0, 0, 1)
	if _, err := reg.Register("blowup", "", blowup); err == nil {
		t.Error("50M near-empty rows accepted")
	}
	huge := spmv.NewMatrix(MaxDeclaredDim+1, 10)
	_ = huge.Set(0, 0, 1)
	if _, err := reg.Register("huge", "", huge); err == nil {
		t.Error("rows beyond MaxDeclaredDim accepted")
	}
	wide := spmv.NewMatrix(10, MaxDeclaredDim+1)
	_ = wide.Set(0, 0, 1)
	if _, err := reg.Register("wide", "", wide); err == nil {
		t.Error("cols beyond MaxDeclaredDim accepted")
	}
}

// TestRetuneBackgroundLoop: the interval scanner promotes without any
// explicit RetuneOnce call.
func TestRetuneBackgroundLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.MaxBatch = 16
	cfg.BatchWindow = 5 * time.Millisecond
	cfg.RetuneInterval = 20 * time.Millisecond
	cfg.RetuneMinRequests = 16
	s := New(cfg)
	defer s.Close()
	m := testMatrix(t, 300, 280, 6000, 33)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 16)
	for v := range xs {
		xs[v] = testVector(280, int64(v))
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		burst(t, s, "a", xs)
		if s.Stats().RetunePromotions > 0 {
			return
		}
	}
	t.Fatalf("background scanner never promoted: %+v", s.Stats())
}

// TestWidthDrift pins the drift metric's shape.
func TestWidthDrift(t *testing.T) {
	for _, tc := range []struct {
		tuned, observed int
		want            float64
	}{
		{1, 1, 0}, {1, 2, 0.5}, {2, 1, 0.5}, {1, 16, 0.9375}, {16, 1, 0.9375}, {8, 8, 0}, {0, 4, 0.75},
	} {
		if got := widthDrift(tc.tuned, tc.observed); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("widthDrift(%d, %d) = %g, want %g", tc.tuned, tc.observed, got, tc.want)
		}
	}
}

// TestWorkloadMedianAndSample pins the workload tracker's aggregation.
func TestWorkloadMedianAndSample(t *testing.T) {
	var w workload
	if got := w.medianWidth(); got != 1 {
		t.Errorf("empty workload median %d, want 1", got)
	}
	for i := 0; i < 10; i++ {
		w.record(1)
	}
	w.record(16) // 16 of 26 requests saw width 16
	if got := w.medianWidth(); got != 16 {
		t.Errorf("request-weighted median %d, want 16", got)
	}
	s := w.sample()
	if len(s) != 11 || s[len(s)-1] != 16 {
		t.Errorf("sample = %v, want 11 entries ending in 16", s)
	}
	for i := 0; i < 2*workloadSampleSize; i++ {
		w.record(4)
	}
	if got := len(w.sample()); got != workloadSampleSize {
		t.Errorf("ring grew to %d, want %d", got, workloadSampleSize)
	}
}
