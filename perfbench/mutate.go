package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	spmv "repro"
	"repro/internal/matrix/delta"
	"repro/internal/server"
)

// mutateOpen is the mutate-open-fem workload: Mul arrivals on a schedule,
// a fixed ladder of offered rates against the general FEM twin through the
// in-process server.API, beside a fixed-rate stream of PATCH batches that
// trips the background recompactor every few seconds. Only arrivals on a
// schedule build a queue, so fusion width, queue wait and the multi-RHS
// kernel decide latency here.
type mutateOpen struct {
	m    *spmv.Matrix
	xs   [][]float64
	want []float64 // naive CSR y for xs[0] on the unpatched matrix

	srv     *server.Server
	api     server.API
	applied [][]server.Delta // every batch the server accepted, in order
}

const femID = "fem"

func (w *mutateOpen) registered() (string, *spmv.Matrix) { return "FEM/Cantilever", w.m }

func (w *mutateOpen) prepare(e *env) error {
	var err error
	if w.m, err = femTwin(e.seed); err != nil {
		return err
	}
	_, cols := w.m.Dims()
	rng := rand.New(rand.NewSource(stream(e.seed, 3)))
	for k := 0; k < e.spec.Mutate.Vectors; k++ {
		w.xs = append(w.xs, randVec(rng, cols))
	}
	naive, err := spmv.Compile(w.m, spmv.NaiveOptions())
	if err != nil {
		return err
	}
	w.want, err = naive.Mul(w.xs[0])
	return err
}

func (w *mutateOpen) setup(e *env) (time.Duration, error) {
	t0 := time.Now()
	w.srv = server.New(serverConfig())
	if _, err := w.srv.Register(femID, "FEM/Cantilever", w.m); err != nil {
		return 0, err
	}
	w.api = w.srv.API()
	w.applied = nil
	e.attempted.Add(1)
	y, err := w.api.MulOpts(femID, w.xs[0], server.MulOptions{})
	if err != nil {
		return 0, err
	}
	if !bitwiseEqual(y, w.want) {
		e.fail("mutate-open-fem: first response differs from the naive CSR result")
	}
	return time.Since(t0), nil
}

func (w *mutateOpen) teardown() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

// patchStream is a running PATCH stream: batches sent open-loop at a fixed
// rate, one at a time so they apply in order, each timed from its due
// time. finish stops it and waits for its goroutine; lat and rows are
// read only after that.
type patchStream struct {
	stop chan struct{}
	done chan struct{}
	lat  []float64
	rows int // most dirty rows any PATCH reported
}

func (w *mutateOpen) startPatches(e *env, rate float64, tr *tracer) *patchStream {
	ps := &patchStream{stop: make(chan struct{}), done: make(chan struct{})}
	rows, cols := w.m.Dims()
	go func() {
		defer close(ps.done)
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			select {
			case <-ps.stop:
				return
			case <-time.After(time.Until(due)):
			}
			batch := patchBatch(e.seed, len(w.applied), e.spec.Mutate.PatchDeltas, rows, cols)
			req := tr.newID()
			e.attempted.Add(1)
			var res server.PatchResult
			_, err := tr.do(req, req, "delta", "API.Patch", func() error {
				var err error
				res, err = w.api.Patch(femID, batch)
				return err
			})
			now := time.Now()
			tr.root(req, "bench", "patch", due, now)
			if err != nil {
				e.fail("mutate-open-fem: patch %d: %v", len(w.applied), err)
				continue
			}
			w.applied = append(w.applied, batch)
			ps.lat = append(ps.lat, ms(now.Sub(due)))
			ps.rows = max(ps.rows, res.DirtyRows)
		}
	}()
	return ps
}

func (ps *patchStream) finish() {
	close(ps.stop)
	<-ps.done
}

// mul is one open-loop Mul: the response is checked for length and
// finiteness (mid-run the overlay moves, so bits are checked at the end).
func (w *mutateOpen) mul(e *env, i int, req int64, tr *tracer) bool {
	rows, _ := w.m.Dims()
	var y []float64
	_, err := tr.do(req, req, "serve", "API.MulOpts", func() error {
		var err error
		y, err = w.api.MulOpts(femID, w.xs[i%len(w.xs)], server.MulOptions{})
		return err
	})
	if err != nil {
		e.fail("mutate-open-fem: mul: %v", err)
		return false
	}
	if !finite(y, rows) {
		e.fail("mutate-open-fem: mul returned %d values or a non-finite one", len(y))
		return false
	}
	return true
}

func (w *mutateOpen) measure(e *env, d time.Duration, tr *tracer) (sample, error) {
	mu := e.spec.Mutate
	// A short closed warm-up: fill caches and let lazy views build.
	warm := time.Now().Add(time.Duration(e.spec.WarmupMS) * time.Millisecond)
	for time.Now().Before(warm) {
		e.attempted.Add(1)
		w.mul(e, 0, 0, nil)
	}
	ps := w.startPatches(e, mu.PatchPerS, tr)
	// The reference rate, whose p50 is the headline latency, runs for half
	// the window; the other rates share the rest.
	other := d / 2 / time.Duration(len(mu.LadderPerS)-1)
	var phases []phase
	var ref phase
	var lateAll []float64
	for _, rate := range mu.LadderPerS {
		per := other
		if rate == mu.ReferencePerS {
			per = d / 2
		}
		arr := openLoop(e, rate, per, mu.MaxInFlight, func(i int, req int64) bool { return w.mul(e, i, req, tr) }, tr)
		ph := account(rate, arr, mu.P99LimitMS)
		phases = append(phases, ph)
		if rate == mu.ReferencePerS {
			ref = ph
		}
		for _, a := range arr {
			lateAll = append(lateAll, ms(a.sent.Sub(a.due)))
		}
	}
	ps.finish()

	var best phase
	fmt.Println("  ladder:  rate/s  sent    ok  fail  shed  done/s    p50ms    p99ms  late99ms  backlog  meets")
	for _, ph := range phases {
		fmt.Printf("  %14.0f %5d %5d %5d %5d %7.1f %8.3f %8.3f %9.3f %4d→%-4d %v\n", ph.Rate, ph.Sent, ph.Succeeded,
			ph.Failed, ph.Shed, ph.Completed, ph.P50MS, ph.P99MS, ph.LateP99MS, ph.BacklogStart, ph.BacklogEnd, ph.MeetsLimit)
		if ph.MeetsLimit {
			best = ph
		}
	}
	e.record("ladder", phases)
	e.note("mul_p50_ms", ref.P50MS)
	e.note("mul_p99_ms", ref.P99MS)
	e.note("mul_max_rps_slo", best.Completed)
	e.note("mul_max_rps_slo.offered", best.Rate)
	e.note("patch_p50_ms", median(ps.lat))
	e.note("patch.count", float64(len(ps.lat)))
	e.note("delta.overlay_rows_max", float64(ps.rows))
	e.note("gen.late_p99_ms", percentile(lateAll, 99))
	e.note("delta.recompactions", float64(w.srv.Stats().Recompactions))
	return sample{latency: ref.P50MS, rate: best.Completed}, nil
}

// verify checks the quiesced matrix: a Mul must equal, bit for bit, the
// naive CSR operator of a from-scratch rebuild of the folded delta log,
// both on the live state (overlay, or a recompaction in flight) and after
// a synchronous recompaction has folded every delta.
func (w *mutateOpen) verify(e *env) error {
	rows, cols := w.m.Dims()
	l := delta.NewLog(rows, cols, func(yield func(i, j int32, v float64)) {
		w.m.Entries(func(i, j int, v float64) { yield(int32(i), int32(j), v) })
	})
	for _, batch := range w.applied {
		ops := make([]delta.Op, len(batch))
		for k, d := range batch {
			ops[k] = delta.Op{Kind: delta.Set, Row: d.Row, Col: d.Col, Val: d.Val}
		}
		if err := l.Apply(ops); err != nil {
			return err
		}
	}
	folded := spmv.NewMatrix(rows, cols)
	var setErr error
	l.Fold(func(i, j int32, v float64) {
		if setErr == nil {
			setErr = folded.Set(int(i), int(j), v)
		}
	})
	if setErr != nil {
		return setErr
	}
	naive, err := spmv.Compile(folded, spmv.NaiveOptions())
	if err != nil {
		return err
	}
	want, err := naive.Mul(w.xs[0])
	if err != nil {
		return err
	}
	check := func(when string) {
		e.attempted.Add(1)
		y, err := w.api.MulOpts(femID, w.xs[0], server.MulOptions{})
		switch {
		case err != nil:
			e.fail("mutate-open-fem: final mul %s: %v", when, err)
		case !bitwiseEqual(y, want):
			e.fail("mutate-open-fem: final mul %s differs from the rebuilt matrix", when)
		}
	}
	check("on the live overlay")
	for {
		err := w.srv.Recompact(femID)
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "already in flight") {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
	check("after recompaction")
	return nil
}
