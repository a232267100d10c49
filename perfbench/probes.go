package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	spmv "repro"
	"repro/internal/server"
	"repro/internal/solve"
)

// probes times calls into each layer's public functions from outside the
// program, on twins generated from the run's seed, and adds the per-layer
// metrics to m. Every timed call is a span in tr: one request per probe,
// its root covering the repetitions.
func probes(e *env, w workload, tr *tracer, m map[string]metric) error {
	reps := e.spec.Probe.Repeats
	add := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// host: the measured bandwidth ceiling, before the twins take memory.
	triad := triadGBs(e.spec.TriadArrayMiB, 10)
	add("host.triad_gbs", "GB/s", triad)
	e.note("host.triad_array_mib", float64(e.spec.TriadArrayMiB))
	e.note("host.llc_mib", float64(e.spec.LLCMiB))

	lp, err := lpTwin(e.seed)
	if err != nil {
		return err
	}
	fem, err := femTwin(e.seed)
	if err != nil {
		return err
	}
	spd, err := spdTwin(e.seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(stream(e.seed, 4)))

	if err := wireProbes(e, tr, lp, rng, reps, add); err != nil {
		return err
	}
	if err := serveProbes(e, tr, rng, reps, add); err != nil {
		return err
	}
	if err := kernelProbes(tr, fem, spd, rng, reps, triad, add); err != nil {
		return err
	}
	if err := solveProbes(e, tr, spd, rng, reps, add); err != nil {
		return err
	}
	if err := registerProbes(e, w, tr, spd, add); err != nil {
		return err
	}
	return deltaProbes(e, tr, fem, reps, add)
}

// timed runs f n times, each in a span, under one probe request and
// returns the median milliseconds.
func timed(tr *tracer, probe, layer, name string, n int, f func() error) (float64, error) {
	req := tr.newID()
	start := time.Now()
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var d time.Duration
		_, err := tr.do(req, req, layer, name, func() error {
			t0 := time.Now()
			err := f()
			d = time.Since(t0)
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, ms(d))
	}
	tr.root(req, "bench", probe, start, time.Now())
	return median(ds), nil
}

// wireProbes splits one LP Mul: the client's JSON encode, the handler on
// an in-memory request and recorder (no socket), and the in-process
// MulOpts the handler wraps. The handler minus MulOpts is the server's
// codec.
func wireProbes(e *env, tr *tracer, lp *spmv.Matrix, rng *rand.Rand, reps int, add func(string, string, float64)) error {
	s := server.New(serverConfig())
	defer s.Close()
	if _, err := s.Register(lpID, "LP", lp); err != nil {
		return err
	}
	_, cols := lp.Dims()
	x := randVec(rng, cols)
	naive, err := spmv.Compile(lp, spmv.NaiveOptions())
	if err != nil {
		return err
	}
	want, err := naive.Mul(x)
	if err != nil {
		return err
	}
	var body []byte
	encode, err := timed(tr, "probe.wire", "wire", "json.Marshal", reps, func() error {
		var err error
		body, err = json.Marshal(struct {
			X []float64 `json:"x"`
		}{x})
		return err
	})
	if err != nil {
		return err
	}
	h := s.Handler()
	var resp []byte
	handler, err := timed(tr, "probe.wire", "wire", "Handler.ServeHTTP", reps, func() error {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/matrices/"+lpID+"/mul", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		resp = rec.Body.Bytes()
		return nil
	})
	if err != nil {
		return err
	}
	var got struct {
		Y []float64 `json:"y"`
	}
	e.attempted.Add(1)
	if err := json.Unmarshal(resp, &got); err != nil || !bitwiseEqual(got.Y, want) {
		e.fail("wire probe: handler response differs from the naive CSR result")
	}
	mul, err := timed(tr, "probe.wire", "serve", "Server.MulOpts", reps, func() error {
		_, err := s.MulOpts(lpID, x, server.MulOptions{})
		return err
	})
	if err != nil {
		return err
	}
	add("wire.client_encode_ms", "ms", encode)
	add("wire.handler_ms", "ms", handler)
	add("wire.server_codec_ms", "ms", handler-mul)
	add("wire.req_bytes", "B", float64(len(body)))
	add("wire.resp_bytes", "B", float64(len(resp)))
	add("serve.mul_ms.lp", "ms", mul)
	return nil
}

// serveProbes times a lone in-process MulOpts on the general FEM twin,
// then offers it Mul arrivals at the ladder's reference rate beside a
// PATCH stream and reads the serving layer's own counters and stage
// latencies over that window.
func serveProbes(e *env, tr *tracer, rng *rand.Rand, reps int, add func(string, string, float64)) error {
	mo := &mutateOpen{}
	if err := mo.prepare(e); err != nil {
		return err
	}
	if _, err := mo.setup(e); err != nil {
		return err
	}
	defer mo.teardown()
	_, cols := mo.m.Dims()
	x := randVec(rng, cols)
	mul, err := timed(tr, "probe.serve", "serve", "Server.MulOpts", reps, func() error {
		_, err := mo.srv.MulOpts(femID, x, server.MulOptions{})
		return err
	})
	if err != nil {
		return err
	}
	add("serve.mul_ms", "ms", mul)

	before := mo.srv.Stats()
	ps := mo.startPatches(e, e.spec.Probe.ServePatchPer, tr)
	d := time.Duration(e.spec.Probe.ServeSeconds * float64(time.Second))
	arr := openLoop(e, e.spec.Mutate.ReferencePerS, d, e.spec.Mutate.MaxInFlight,
		func(i int, req int64) bool { return mo.mul(e, i, req, tr) }, tr)
	ps.finish()
	after := mo.srv.Stats()
	ph := account(e.spec.Mutate.ReferencePerS, arr, e.spec.Mutate.P99LimitMS)
	lat := mo.srv.Latency()
	if err := mo.verify(e); err != nil {
		return err
	}
	reqs := float64(after.Requests - before.Requests)
	add("serve.queue_ms", "ms", lat.Stage["queue"].MeanUS/1000)
	add("serve.execute_ms", "ms", lat.Stage["execute"].MeanUS/1000)
	add("batch.mean_width", "requests/sweep", reqs/float64(after.Sweeps-before.Sweeps))
	add("batch.fused_frac", "frac", float64(after.FusedRequests-before.FusedRequests)/reqs)
	add("gen.late_p99_ms", "ms", ph.LateP99MS)
	add("delta.recompactions", "count", float64(after.Recompactions-before.Recompactions))
	add("delta.overlay_rows_max", "rows", float64(ps.rows))
	return nil
}

// kernelProbes times single sweeps of the kernels the serving paths use
// and divides the traffic model's bytes by them: GB/s computed from
// modeled bytes, not measured ones.
func kernelProbes(tr *tracer, fem, spd *spmv.Matrix, rng *rand.Rand, reps int, triad float64, add func(string, string, float64)) error {
	threads := runtime.GOMAXPROCS(0)
	symOp, err := spmv.CompileSymmetricParallel(spd, threads)
	if err != nil {
		return err
	}
	genOp, err := spmv.CompileParallel(fem, spmv.DefaultTuneOptions(), threads, 1)
	if err != nil {
		return err
	}
	tuned, err := spmv.Compile(fem, spmv.DefaultTuneOptions())
	if err != nil {
		return err
	}
	n, _ := spd.Dims()
	rows, cols := fem.Dims()
	sweep := func(name string, op *spmv.Operator, nr, nc int) (float64, error) {
		x, y := randVec(rng, nc), make([]float64, nr)
		return timed(tr, "probe.kernel", "kernel", name, 5*reps, func() error { return op.MulAdd(y, x) })
	}
	multi := func(width int) (float64, error) {
		mo, err := genOp.Multi(width)
		if err != nil {
			return 0, err
		}
		x, y := randVec(rng, cols*width), make([]float64, rows*width)
		return timed(tr, "probe.kernel", "kernel", fmt.Sprintf("MultiOperator.MulAddBlock.w%d", width), 5*reps,
			func() error { return mo.MulAddBlock(y, x) })
	}
	var opt spmv.TrafficOptions
	symT, err := symOp.Traffic(opt)
	if err != nil {
		return err
	}
	multiT, err := genOp.MultiTraffic(opt)
	if err != nil {
		return err
	}
	tunedT, err := tuned.Traffic(opt)
	if err != nil {
		return err
	}
	cases := []struct {
		key, metric string
		bytes       int64
		run         func() (float64, error)
	}{
		{"sym", "kernel.sym_sweep_ms", symT.TotalBytes(), func() (float64, error) { return sweep("Operator.MulAdd.sym", symOp, n, n) }},
		{"w1", "kernel.multi_sweep_ms.w1", multiT.TotalBytes(), func() (float64, error) { return multi(1) }},
		{"w8", "kernel.multi_sweep_ms.w8", multiT.MultiRHS(8).TotalBytes(), func() (float64, error) { return multi(8) }},
		{"tuned", "kernel.tuned_sweep_ms", tunedT.TotalBytes(), func() (float64, error) { return sweep("Operator.MulAdd.tuned", tuned, rows, cols) }},
	}
	for _, c := range cases {
		t, err := c.run()
		if err != nil {
			return err
		}
		gbs := float64(c.bytes) / (t / 1000) / 1e9
		add(c.metric, "ms", t)
		add("traffic.sweep_bytes."+c.key, "B", float64(c.bytes))
		add("kernel.gbs."+c.key, "GB/s", gbs)
		add("kernel.roofline_frac."+c.key, "frac", gbs/triad)
	}
	return nil
}

// solveProbes runs in-process CG sessions on the SPD twin for wall time
// per iteration, and times one CG iteration's BLAS-1 tail alone.
func solveProbes(e *env, tr *tracer, spd *spmv.Matrix, rng *rand.Rand, reps int, add func(string, string, float64)) error {
	s := server.New(serverConfig())
	defer s.Close()
	if _, err := s.Register(spdID, "FEM/Cantilever-spd", spd); err != nil {
		return err
	}
	n, _ := spd.Dims()
	var perIter, iters []float64
	for k := 0; k < 4; k++ {
		b := randVec(rng, n)
		var st server.SolveStatus
		t, err := timed(tr, "probe.solve", "solve", "Server.SolveOpts+SolveStatus", 1, func() error {
			var err error
			st, err = s.SolveOpts(spdID, server.SolveRequest{Method: "cg", B: b, Tol: e.spec.Solve.Tol, MaxIters: e.spec.Solve.MaxIters}, server.SolveOptions{})
			for err == nil && st.State == "running" {
				st, err = s.SolveStatus(st.SID, 30*time.Second)
			}
			return err
		})
		if err != nil {
			return err
		}
		e.attempted.Add(1)
		if st.State != "converged" {
			e.fail("solve probe: session ended %q", st.State)
			continue
		}
		perIter = append(perIter, t/float64(st.Iters))
		iters = append(iters, float64(st.Iters))
	}
	add("solve.iter_ms", "ms", median(perIter))
	add("solve.cg_iters", "iterations", median(iters))

	blas := solve.BLAS{Threads: runtime.GOMAXPROCS(0), Deterministic: true}
	r, p, q, x := randVec(rng, n), randVec(rng, n), randVec(rng, n), make([]float64, n)
	t, err := timed(tr, "probe.solve", "solve", "BLAS.iteration", 10*reps, func() error {
		a := blas.Dot(r, r) / (blas.Dot(p, q) + 1)
		blas.Axpy(a*1e-9, p, x)
		blas.Axpy(-a*1e-9, q, r)
		blas.Xpay(1e-9, r, p)
		return nil
	})
	if err != nil {
		return err
	}
	add("solve.blas_iter_ms", "ms", t)
	return nil
}

// registerProbes times registration and compilation of the workload's own
// matrix, and the symmetric compile of the SPD twin, per nonzero.
func registerProbes(e *env, w workload, tr *tracer, spd *spmv.Matrix, add func(string, string, float64)) error {
	name, m := w.registered()
	nnz := float64(m.NNZ())
	const n = 3
	reg, err := timed(tr, "probe.register", "tune", "Server.Register", n, func() error {
		s := server.New(serverConfig())
		defer s.Close()
		_, err := s.Register("m", name, m)
		return err
	})
	if err != nil {
		return err
	}
	tuned, err := timed(tr, "probe.register", "tune", "Compile.default", n, func() error {
		_, err := spmv.Compile(m, spmv.DefaultTuneOptions())
		return err
	})
	if err != nil {
		return err
	}
	csr, err := timed(tr, "probe.register", "matrix", "Compile.naive", n, func() error {
		_, err := spmv.Compile(m, spmv.NaiveOptions())
		return err
	})
	if err != nil {
		return err
	}
	sym, err := timed(tr, "probe.register", "tune", "CompileSymmetricParallel", n, func() error {
		_, err := spmv.CompileSymmetricParallel(spd, runtime.GOMAXPROCS(0))
		return err
	})
	if err != nil {
		return err
	}
	add("register.ns_per_nnz", "ns", reg*1e6/nnz)
	add("tune.compile_ns_per_nnz", "ns", tuned*1e6/nnz)
	add("matrix.csr_ns_per_nnz", "ns", csr*1e6/nnz)
	add("tune.sym_compile_ns_per_nnz", "ns", sym*1e6/float64(spd.NNZ()))
	return nil
}

// deltaProbes times PATCH batches against a server whose recompactor is
// held off, then one synchronous recompaction of the overlay they built.
func deltaProbes(e *env, tr *tracer, fem *spmv.Matrix, reps int, add func(string, string, float64)) error {
	cfg := serverConfig()
	cfg.RecompactThreshold = -1
	s := server.New(cfg)
	defer s.Close()
	if _, err := s.Register(femID, "FEM/Cantilever", fem); err != nil {
		return err
	}
	rows, cols := fem.Dims()
	k := 0
	patch, err := timed(tr, "probe.delta", "delta", "Server.Patch", reps, func() error {
		_, err := s.Patch(femID, patchBatch(stream(e.seed, 5), k, e.spec.Mutate.PatchDeltas, rows, cols))
		k++
		return err
	})
	if err != nil {
		return err
	}
	recompact, err := timed(tr, "probe.delta", "delta", "Server.Recompact", 1, func() error { return s.Recompact(femID) })
	if err != nil {
		return err
	}
	add("delta.patch_ms", "ms", patch)
	add("delta.recompact_s", "s", recompact/1000)
	return nil
}
