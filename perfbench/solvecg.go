package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	spmv "repro"
	"repro/internal/server"
)

// solveCG is the solve-cg-fem workload: one closed-loop client over HTTP
// runs CG sessions on the SPD FEM twin (served symmetric) to a relative
// residual of tol, cycling a fixed, seeded set of right-hand sides. b goes
// over the wire once and x comes back once per ~50 server-side sweeps, so
// the kernel and the solver's BLAS-1 tail do the work.
type solveCG struct {
	m     *spmv.Matrix
	ref   *spmv.Operator // naive CSR, for the residual check
	bs    [][]float64
	iters []int // each right-hand side's iteration count in this run's first session

	web *front

	mu      sync.Mutex
	results []solved
}

// solved is one finished session kept for the post-run checks.
type solved struct {
	rhs   int
	state string
	iters int
	x     []float64
}

const spdID = "spd"

func (w *solveCG) registered() (string, *spmv.Matrix) { return "FEM/Cantilever-spd", w.m }

func (w *solveCG) prepare(e *env) error {
	var err error
	if w.m, err = spdTwin(e.seed); err != nil {
		return err
	}
	if w.ref, err = spmv.Compile(w.m, spmv.NaiveOptions()); err != nil {
		return err
	}
	n, _ := w.m.Dims()
	rng := rand.New(rand.NewSource(stream(e.seed, 2)))
	for k := 0; k < e.spec.Solve.RHS; k++ {
		w.bs = append(w.bs, randVec(rng, n))
	}
	w.iters = make([]int, len(w.bs))
	return nil
}

func (w *solveCG) setup(e *env) (time.Duration, error) {
	t0 := time.Now()
	srv := server.New(serverConfig())
	info, err := srv.Register(spdID, "FEM/Cantilever-spd", w.m)
	if err == nil && !info.Symmetric {
		err = fmt.Errorf("solve-cg-fem: the SPD twin was not served symmetric (kernel %s)", info.Kernel)
	}
	if err == nil {
		w.web, err = startFront(srv, 1)
	}
	if err != nil {
		srv.Close()
		return 0, err
	}
	e.attempted.Add(1)
	st, err := w.solve(e, 0, 0, nil)
	if err != nil {
		return 0, err
	}
	if err := w.check(e, solved{rhs: 0, state: st.State, iters: st.Iters, x: st.X}); err != nil {
		e.fail("%v", err)
	}
	return time.Since(t0), nil
}

func (w *solveCG) teardown() {
	w.web.close()
	w.web = nil
}

// solve runs one session for right-hand side k: SolveOpts, then
// SolveStatus with a server-side wait until it leaves running.
func (w *solveCG) solve(e *env, k int, req int64, tr *tracer) (server.SolveStatus, error) {
	var st server.SolveStatus
	_, err := tr.do(req, req, "wire", "HTTPClient.SolveOpts", func() error {
		var err error
		st, err = w.web.hc.SolveOpts(spdID, server.SolveRequest{
			Method: "cg", B: w.bs[k], Tol: e.spec.Solve.Tol, MaxIters: e.spec.Solve.MaxIters,
		}, server.SolveOptions{})
		return err
	})
	for err == nil && st.State == "running" {
		sid := st.SID
		_, err = tr.do(req, req, "wire", "HTTPClient.SolveStatus", func() error {
			var err error
			st, err = w.web.hc.SolveStatus(sid, 30*time.Second)
			return err
		})
	}
	return st, err
}

// check verifies one finished session: converged, the residual recomputed
// with the library operator within tol, and the iteration count equal to
// the first session's for the same right-hand side.
func (w *solveCG) check(e *env, r solved) error {
	if r.state != "converged" {
		return fmt.Errorf("solve-cg-fem: session for rhs %d ended %q after %d iterations", r.rhs, r.state, r.iters)
	}
	n, _ := w.m.Dims()
	if !finite(r.x, n) {
		return fmt.Errorf("solve-cg-fem: rhs %d: solution has wrong length or non-finite values", r.rhs)
	}
	ax, err := w.ref.Mul(r.x)
	if err != nil {
		return err
	}
	b := w.bs[r.rhs]
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	if res := math.Sqrt(rr / bb); !(res <= e.spec.Solve.Tol) {
		return fmt.Errorf("solve-cg-fem: rhs %d: recomputed residual %.3g exceeds tol %g", r.rhs, res, e.spec.Solve.Tol)
	}
	if w.iters[r.rhs] == 0 {
		w.iters[r.rhs] = r.iters
	} else if w.iters[r.rhs] != r.iters {
		return fmt.Errorf("solve-cg-fem: rhs %d took %d iterations, first session took %d", r.rhs, r.iters, w.iters[r.rhs])
	}
	return nil
}

func (w *solveCG) measure(e *env, d time.Duration, tr *tracer) (sample, error) {
	next := 0
	lat := closedLoop(e, 1, time.Duration(e.spec.WarmupMS)*time.Millisecond, d, func(_ int, req int64, tr *tracer) bool {
		k := next % len(w.bs)
		next++
		st, err := w.solve(e, k, req, tr)
		if err != nil {
			e.fail("solve-cg-fem: %v", err)
			return false
		}
		w.mu.Lock()
		w.results = append(w.results, solved{rhs: k, state: st.State, iters: st.Iters, x: st.X})
		w.mu.Unlock()
		return st.State == "converged" // verify counts the failure
	}, tr)
	s := sample{latency: mean(lat.ms), rate: lat.rate()}
	e.note("solve_mean_ms", s.latency)
	e.note("solve_p50_ms", percentile(lat.ms, 50))
	e.note("solve_p95_ms", percentile(lat.ms, 95))
	e.note("solve_p95_supported", supported(len(lat.ms), 95))
	e.note("solve.sessions_per_s", s.rate)
	e.note("solve.samples", float64(len(lat.ms)))
	return s, nil
}

// verify checks every session the run kept and counts each that fails.
func (w *solveCG) verify(e *env) error {
	w.mu.Lock()
	results := w.results
	w.results = nil
	w.mu.Unlock()
	for _, r := range results {
		if err := w.check(e, r); err != nil {
			e.fail("%v", err)
		}
	}
	iters := make([]float64, len(w.iters))
	for k, it := range w.iters {
		iters[k] = float64(it)
	}
	e.note("cg_iters", mean(iters))
	e.note("cg_iters.per_rhs", w.iters)
	return nil
}
