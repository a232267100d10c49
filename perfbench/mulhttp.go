package main

import (
	"math/rand"
	"time"

	spmv "repro"
	"repro/internal/server"
)

// mulHTTP is the mul-http-lp workload: closed-loop clients, each sending
// its own random x to the LP twin over loopback HTTP+JSON. A request
// carries 55000 floats of JSON and gets 214 back, so the wire does most of
// the work. Every response must equal the naive CSR operator's bitwise.
type mulHTTP struct {
	m    *spmv.Matrix
	xs   [][]float64 // one x per client
	want [][]float64 // naive CSR y for each x

	web *front
}

const lpID = "lp"

func (w *mulHTTP) registered() (string, *spmv.Matrix) { return "LP", w.m }

func (w *mulHTTP) prepare(e *env) error {
	var err error
	if w.m, err = lpTwin(e.seed); err != nil {
		return err
	}
	naive, err := spmv.Compile(w.m, spmv.NaiveOptions())
	if err != nil {
		return err
	}
	_, cols := w.m.Dims()
	rng := rand.New(rand.NewSource(stream(e.seed, 1)))
	for g := 0; g < e.spec.MulHTTP.Clients; g++ {
		x := randVec(rng, cols)
		y, err := naive.Mul(x)
		if err != nil {
			return err
		}
		w.xs, w.want = append(w.xs, x), append(w.want, y)
	}
	return nil
}

func (w *mulHTTP) setup(e *env) (time.Duration, error) {
	t0 := time.Now()
	srv := server.New(serverConfig())
	if _, err := srv.Register(lpID, "LP", w.m); err != nil {
		srv.Close()
		return 0, err
	}
	var err error
	if w.web, err = startFront(srv, len(w.xs)); err != nil {
		srv.Close()
		return 0, err
	}
	e.attempted.Add(1)
	y, err := w.web.hc.MulOpts(lpID, w.xs[0], server.MulOptions{})
	if err != nil {
		return 0, err
	}
	if !bitwiseEqual(y, w.want[0]) {
		e.fail("mul-http-lp: first response differs from the naive CSR result")
	}
	return time.Since(t0), nil
}

func (w *mulHTTP) teardown() {
	w.web.close()
	w.web = nil
}

func (w *mulHTTP) measure(e *env, d time.Duration, tr *tracer) (sample, error) {
	lat := closedLoop(e, len(w.xs), time.Duration(e.spec.WarmupMS)*time.Millisecond, d, func(g int, req int64, tr *tracer) bool {
		var y []float64
		_, err := tr.do(req, req, "wire", "HTTPClient.MulOpts", func() error {
			var err error
			y, err = w.web.hc.MulOpts(lpID, w.xs[g], server.MulOptions{})
			return err
		})
		if err != nil {
			e.fail("mul-http-lp: %v", err)
			return false
		}
		ok := true
		tr.do(req, req, "bench", "verify", func() error {
			if ok = bitwiseEqual(y, w.want[g]); !ok {
				e.fail("mul-http-lp: client %d response differs from the naive CSR result", g)
			}
			return nil
		})
		return ok
	}, tr)
	s := sample{latency: mean(lat.ms), rate: lat.rate()}
	e.note("mul_rps", s.rate)
	e.note("mul_mean_ms", s.latency)
	e.note("mul_p50_ms", percentile(lat.ms, 50))
	e.note("mul_p99_ms", percentile(lat.ms, 99))
	e.note("mul_p99_supported", supported(len(lat.ms), 99))
	e.note("mul.samples", float64(len(lat.ms)))
	return s, nil
}

func (w *mulHTTP) verify(*env) error { return nil }
