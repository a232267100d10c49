// End-to-end HTTP tests of the solver-session API, including the
// headline retune-safety property: a session that iterates across a
// forced RetuneOnce promotion produces the exact trajectory bits of an
// undisturbed server.
package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	spmv "repro"
)

// lpNormalMatrix builds the normal-equations matrix A·Aᵀ of the paper's
// LP suite twin (rail4284-class), plus a ridge shift for positive
// definiteness — the SPD system an interior-point LP solver hands to CG
// every step. The accumulation order is identical for (i,j) and (j,i), so
// the result is exactly symmetric.
func lpNormalMatrix(t testing.TB, scale float64, seed int64) *spmv.Matrix {
	t.Helper()
	m, err := spmv.GenerateSuite("LP", scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := m.Dims()
	type ent struct {
		i int
		v float64
	}
	byCol := make([][]ent, cols)
	m.Entries(func(i, j int, v float64) { byCol[j] = append(byCol[j], ent{i, v}) })
	// Accumulate the upper triangle only and mirror it, so the two
	// triangles are equal to the last bit whatever order the column
	// entries arrive in.
	dense := make([]float64, rows*rows)
	for _, es := range byCol {
		for _, a := range es {
			for _, b := range es {
				if b.i >= a.i {
					dense[a.i*rows+b.i] += a.v * b.v
				}
			}
		}
	}
	var maxDiag float64
	for i := 0; i < rows; i++ {
		if d := dense[i*rows+i]; d > maxDiag {
			maxDiag = d
		}
	}
	out := spmv.NewMatrix(rows, rows)
	for i := 0; i < rows; i++ {
		for j := i; j < rows; j++ {
			v := dense[i*rows+j]
			if i == j {
				v += 0.1*maxDiag + 1
			}
			if v == 0 {
				continue
			}
			if err := out.Set(i, j, v); err != nil {
				t.Fatal(err)
			}
			if i != j {
				if err := out.Set(j, i, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out
}

// TestSolveHTTPThreadInvariance is the acceptance scenario: a CG session
// on a symmetric LP-class matrix (the LP twin's normal equations)
// converges through the HTTP API with bit-identical residual history and
// solution across server thread counts 1/2/4.
func TestSolveHTTPThreadInvariance(t *testing.T) {
	m := lpNormalMatrix(t, 0.02, 5)
	n, _ := m.Dims()
	b := testVector(n, 51)
	req := SolveRequest{Method: "cg", B: b, Tol: 1e-10, MaxIters: 20000}

	var refFin SolveStatus
	for _, threads := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Threads = threads
		cfg.Workers = threads
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		if _, err := s.Register("lp", "lp-normal", m); err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/matrices/lp/solve", req)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("threads=%d: solve create status %d", threads, resp.StatusCode)
		}
		created := decode[SolveStatus](t, resp)
		fin := httpSolveWait(t, ts.URL, created.SID)
		if fin.State != "converged" {
			t.Fatalf("threads=%d: state %q after %d iters (err %q)", threads, fin.State, fin.Iters, fin.Error)
		}
		if threads == 1 {
			refFin = fin
		} else {
			if fin.Iters != refFin.Iters {
				t.Fatalf("threads=%d converged after %d iters, threads=1 after %d", threads, fin.Iters, refFin.Iters)
			}
			if !sameBits(fin.History, refFin.History) {
				t.Fatalf("threads=%d: residual-history bits differ from threads=1", threads)
			}
			if !sameBits(fin.X, refFin.X) {
				t.Fatalf("threads=%d: solution bits differ from threads=1", threads)
			}
		}
		ts.Close()
		s.Close()
	}
	if refFin.Iters == 0 {
		t.Fatal("reference solve did not iterate")
	}
}

// httpSolveWait polls GET /v1/solve/{sid}?wait=… until the session leaves
// running.
func httpSolveWait(t *testing.T, base, sid string) SolveStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/solve/" + sid + "?wait=250ms")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve status %d", resp.StatusCode)
		}
		st := decode[SolveStatus](t, resp)
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s still running after 60s: iters=%d", sid, st.Iters)
		}
	}
}

// solveServerConfig is the shared config of the mid-solve promotion
// test and its undisturbed baseline twin. AutoSymmetric is off so the SPD
// matrix is served by the general CSR32 path, leaving the
// re-tuner its bit-preserving CSR16 promotion.
func solveServerConfig() Config {
	cfg := DefaultConfig()
	cfg.AutoSymmetric = false
	cfg.Threads = 2
	cfg.Workers = 2
	cfg.Shards = 2
	cfg.MaxBatch = 4
	cfg.BatchWindow = 5 * time.Millisecond
	cfg.RetuneMinRequests = 16
	return cfg
}

// TestSolveHTTPRetuneMidSolve: drive a wide Mul workload so the re-tuner
// has a promotable CSR16 candidate, start a CG session over HTTP, force
// the promotion while the session is mid-solve, and require (a) the
// session iterates across the generation bump and (b) its residual
// history and solution bits equal those of a baseline server that never
// re-tuned.
func TestSolveHTTPRetuneMidSolve(t *testing.T) {
	// 150×150 Poisson: condition number O(side²), so CG needs hundreds of
	// iterations to 1e-12 — ample room for the promotion to land
	// mid-solve long before convergence.
	const side = 150
	const n = side * side
	m := poissonMatrix(t, side)
	b := testVector(n, 22)
	req := SolveRequest{Method: "cg", B: b, Tol: 1e-12, MaxIters: 5000}

	// Baseline: same config, no bursts, no re-tune — generation stays 0.
	s0 := New(solveServerConfig())
	defer s0.Close()
	if _, err := s0.Register("a", "poisson", m); err != nil {
		t.Fatal(err)
	}
	base, err := s0.Solve("a", req)
	if err != nil {
		t.Fatal(err)
	}
	baseFin := waitDone(t, s0, base.SID)
	if baseFin.State != "converged" {
		t.Fatalf("baseline state %q after %d iters (err %q)", baseFin.State, baseFin.Iters, baseFin.Error)
	}
	if baseFin.Iters < 100 {
		t.Fatalf("baseline converged in %d iters — too fast to observe a mid-solve promotion", baseFin.Iters)
	}
	if baseFin.ServingGenerationLast != 0 {
		t.Fatalf("baseline crossed generations: %d", baseFin.ServingGenerationLast)
	}

	// Test server: same matrix, wide workload first so the drift signal
	// points at a width-16 mix.
	s := New(solveServerConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Register("a", "poisson", m); err != nil {
		t.Fatal(err)
	}
	// Many rounds: the drift signal is request-weighted, and the session
	// about to start records width-1 sweeps that compete with this wide
	// history — the fused weight must stay in the majority at eval time.
	xs := make([][]float64, 4)
	for v := range xs {
		xs[v] = testVector(n, int64(700+v))
	}
	for round := 0; round < 100; round++ {
		burst(t, s, "a", xs)
	}
	rep, err := s.Tuning("a")
	if err != nil {
		t.Fatal(err)
	}
	if rep.ObservedMedianWidth < 3 {
		t.Fatalf("observed median width %d, want >= 3", rep.ObservedMedianWidth)
	}

	// Start the session over HTTP, then force the promotion mid-solve.
	resp := postJSON(t, ts.URL+"/v1/matrices/a/solve", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("solve create status %d", resp.StatusCode)
	}
	created := decode[SolveStatus](t, resp)
	if created.State != "running" || created.SID == "" {
		t.Fatalf("created %+v", created)
	}
	if got := s.RetuneOnce(); got != 1 {
		t.Fatalf("RetuneOnce promoted %d operators, want 1", got)
	}
	mid, err := s.SolveStatus(created.SID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State != "running" {
		t.Fatalf("session finished before the promotion landed (%d iters) — enlarge the fixture", mid.Iters)
	}
	resp, err = http.Get(ts.URL + "/v1/matrices/a/tuning")
	if err != nil {
		t.Fatal(err)
	}
	if rep := decode[TuningReport](t, resp); rep.Generation != 1 || !rep.Wide {
		t.Fatalf("post-promotion tuning report %+v", rep)
	}

	fin := httpSolveWait(t, ts.URL, created.SID)
	if fin.State != "converged" {
		t.Fatalf("state %q after %d iters (err %q)", fin.State, fin.Iters, fin.Error)
	}
	if fin.Iters != baseFin.Iters {
		t.Fatalf("converged after %d iters, baseline after %d — trajectories diverged", fin.Iters, baseFin.Iters)
	}
	if fin.ServingGenerationFirst != 0 || fin.ServingGenerationLast != 1 {
		t.Fatalf("session saw generations %d..%d, want 0..1 (promotion mid-solve)",
			fin.ServingGenerationFirst, fin.ServingGenerationLast)
	}
	if !sameBits(fin.History, baseFin.History) {
		t.Fatal("residual-history bits differ from the undisturbed baseline across the promotion")
	}
	if !sameBits(fin.X, baseFin.X) {
		t.Fatal("solution bits differ from the undisturbed baseline across the promotion")
	}
}

// TestSolveHTTPDivergenceObservable: a solver that overflows the floats
// must still be observable over HTTP — state "failed" with a diagnosis,
// well-formed JSON, no Inf/NaN smuggled into the response (encoding/json
// rejects them, which would surface as a 200 with an empty body).
func TestSolveHTTPDivergenceObservable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	m := spmv.NewMatrix(2, 2)
	for _, e := range [][3]float64{{0, 0, 1.7e308}, {1, 1, 1.7e308}, {0, 1, 1.7e308}, {1, 0, 1.7e308}} {
		if err := m.Set(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Register("huge", "overflow", m); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/matrices/huge/solve", SolveRequest{Method: "power", MaxIters: 50})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	created := decode[SolveStatus](t, resp)
	fin := httpSolveWait(t, ts.URL, created.SID) // decode fails loudly on an empty 200
	if fin.State != "failed" || fin.Error == "" {
		t.Fatalf("state %q error %q, want failed with a diagnosis", fin.State, fin.Error)
	}
	for i, v := range fin.History {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("history[%d] = %g is not finite", i, v)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	if list := decode[[]SolveStatus](t, resp); len(list) != 1 || list[0].State != "failed" {
		t.Fatalf("session list %+v", list)
	}
}

// TestSolveHTTPLifecycle covers the documented error statuses and the
// cancel flow over HTTP.
func TestSolveHTTPLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	cfg.MaxSessions = 1
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 300
	if _, err := s.Register("spd", "spd", spdMatrix(t, n, 3*n, 31)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("asym", "general", testMatrix(t, n, n, 4*n, 32)); err != nil {
		t.Fatal(err)
	}
	b := testVector(n, 33)

	// Unknown matrix -> 404; unknown session -> 404 on GET and DELETE.
	resp := postJSON(t, ts.URL+"/v1/matrices/nope/solve", SolveRequest{Method: "cg", B: b})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown matrix: %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err := http.Get(ts.URL + "/v1/solve/s999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session GET: %d", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/solve/s999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session DELETE: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// CG on a non-symmetric matrix -> 400.
	resp = postJSON(t, ts.URL+"/v1/matrices/asym/solve", SolveRequest{Method: "cg", B: b})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cg on asymmetric: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed JSON and JSON-level NaN tolerances -> 400.
	for _, body := range []string{
		`{"method":"cg","b":[1,2`,
		`{"method":"cg","b":[1,2,3],"tol":NaN}`,
		`{"method":"cg","b":[1,2,3],"tol":1e999}`,
		`{"method":"cg","b":[1,2,3],"max_iters":-4}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/matrices/spd/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Session cap -> 429 while the only slot is running.
	resp = postJSON(t, ts.URL+"/v1/matrices/spd/solve", longRunningSolve(n, 34))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first session: %d", resp.StatusCode)
	}
	first := decode[SolveStatus](t, resp)
	resp = postJSON(t, ts.URL+"/v1/matrices/spd/solve", longRunningSolve(n, 35))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap session: %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	// List shows the resident session; bad wait param -> 400.
	resp, err = http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	if list := decode[[]SolveStatus](t, resp); len(list) != 1 || list[0].SID != first.SID {
		t.Fatalf("session list %+v", list)
	}
	resp, err = http.Get(ts.URL + "/v1/solve/" + first.SID + "?wait=bogus")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// DELETE cancels the running session and frees the slot.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/solve/"+first.SID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	if st := decode[SolveStatus](t, resp); st.State != "cancelled" {
		t.Fatalf("cancel state %q", st.State)
	}
	resp = postJSON(t, ts.URL+"/v1/matrices/spd/solve", SolveRequest{Method: "power", Tol: 1e-6, MaxIters: 20000})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-cancel session: %d", resp.StatusCode)
	}
	pw := decode[SolveStatus](t, resp)
	fin := httpSolveWait(t, ts.URL, pw.SID)
	if fin.State != "converged" {
		t.Fatalf("power state %q (err %q)", fin.State, fin.Error)
	}

	// The solver counters surface in /metrics.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	k, _ := resp.Body.Read(buf)
	resp.Body.Close()
	metrics := string(buf[:k])
	for _, want := range []string{"spmv_serve_solve_sessions_total", "spmv_serve_solve_iters_total", "spmv_serve_solve_sessions_resident"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %s", want)
		}
	}
}
