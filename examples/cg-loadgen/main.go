// cg-loadgen measures what solver-session residency buys over the wire:
// the same CG solve is run twice against a live spmv-serve HTTP endpoint —
//
//   - naive: the solver loop lives in the client, so every iteration
//     round-trips one POST /v1/matrices/{id}/mul through server.HTTPClient
//     (the search direction up, A·p back — two dense binary float64
//     vectors per step);
//   - session: one POST /v1/matrices/{id}/solve ships b once, the solver
//     state stays server-resident (x, r, p, Ap never cross the wire), and
//     the client polls GET /v1/solve/{sid} for the residual history.
//
// The comparison prints measured iterations/second for both modes, the
// wire bytes they moved, and the traffic model's DRAM bytes per iteration
// (internal/traffic.CGIterationBytes) for the modeled-vs-measured entry
// in EXPERIMENTS.md.
//
//	go run ./examples/cg-loadgen [-side 120] [-threads 4] [-tol 1e-8] [-maxiter 4000]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"time"

	spmv "repro"
	"repro/internal/server"
)

func main() {
	side := flag.Int("side", 120, "Poisson grid side (n = side^2 unknowns)")
	threads := flag.Int("threads", 4, "server threads and workers")
	tol := flag.Float64("tol", 1e-8, "relative residual tolerance")
	maxIter := flag.Int("maxiter", 4000, "iteration budget")
	flag.Parse()
	n := *side * *side

	// Serving endpoint: real HTTP on a loopback port.
	cfg := server.DefaultConfig()
	cfg.Threads = *threads
	cfg.Workers = *threads
	s := server.New(cfg)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	m := poisson(*side)
	info, err := s.Register("poisson", "poisson", m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system    : %d x %d, %d nnz, kernel %s, served at %s\n",
		info.Rows, info.Cols, info.NNZ, info.Kernel, base)

	rng := rand.New(rand.NewSource(1))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	// Naive: client-side CG, one mul round-trip per iteration.
	naive := newMeter()
	x, iters, relres := clientCG(naive, server.NewHTTPClient(base, nil), b, *tol, *maxIter)
	naiveElapsed := naive.elapsed()
	fmt.Printf("naive     : %4d iters in %7.1fms  (%6.0f iters/s)  residual %.2e  wire %s\n",
		iters, ms(naiveElapsed), float64(iters)/naiveElapsed.Seconds(), relres, naive.wire())
	if lat := s.Latency(); lat != nil {
		if h, ok := lat.Endpoint["mul"]; ok {
			fmt.Printf("          : measured mul round-trip p50 %.0fµs  p99 %.0fµs (server-side, %d requests)\n",
				h.P50US, h.P99US, h.Count)
		}
	}
	_ = x

	// Session: one solve request, state server-resident, poll to done.
	sess := newMeter()
	fin := sessionCG(sess, base, b, *tol, *maxIter)
	sessElapsed := sess.elapsed()
	fmt.Printf("session   : %4d iters in %7.1fms  (%6.0f iters/s)  residual %.2e  wire %s\n",
		fin.Iters, ms(sessElapsed), float64(fin.Iters)/sessElapsed.Seconds(), fin.Residual, sess.wire())
	if lat := s.Latency(); lat != nil {
		if h, ok := lat.Stage["solve_iter"]; ok {
			fmt.Printf("          : measured iteration p50 %.0fµs  p99 %.0fµs (server-resident, %d iterations)\n",
				h.P50US, h.P99US, h.Count)
		}
	}

	naiveRate := float64(iters) / naiveElapsed.Seconds()
	sessRate := float64(fin.Iters) / sessElapsed.Seconds()
	fmt.Printf("residency : %.2fx iterations/s, %.0fx fewer wire bytes\n",
		sessRate/naiveRate, float64(naive.bytes)/float64(max(sess.bytes, 1)))
	fmt.Printf("modeled   : %.1f KB DRAM per session iteration (sweep + BLAS-1 tail)\n",
		float64(fin.ModeledBytesPerIter)/1e3)
	fmt.Printf("          : sustained-DRAM bound at 10 GB/s = %.0f iters/s; measured session rate is %.1f%% of it\n",
		1e10/float64(fin.ModeledBytesPerIter), 100*sessRate*float64(fin.ModeledBytesPerIter)/1e10)
}

// poisson assembles the 2D 5-point stencil: SPD, the canonical CG system.
func poisson(side int) *spmv.Matrix {
	n := side * side
	m := spmv.NewMatrix(n, n)
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := at(r, c)
			must(m.Set(i, i, 4))
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				rr, cc := r+d[0], c+d[1]
				if rr >= 0 && rr < side && cc >= 0 && cc < side {
					must(m.Set(i, at(rr, cc), -1))
				}
			}
		}
	}
	return m
}

// meter tracks wall time and wire bytes (request + response bodies).
type meter struct {
	start time.Time
	bytes int64
}

func newMeter() *meter                  { return &meter{start: time.Now()} }
func (m *meter) elapsed() time.Duration { return time.Since(m.start) }
func (m *meter) wire() string {
	return fmt.Sprintf("%.1f MB", float64(m.bytes)/1e6)
}

// call posts a JSON body (or GETs when body is nil) and decodes the reply,
// accounting both directions' bytes.
func call(mt *meter, method, url string, body, out any) {
	var req *http.Request
	var err error
	if body != nil {
		buf, merr := json.Marshal(body)
		if merr != nil {
			log.Fatal(merr)
		}
		mt.bytes += int64(len(buf))
		req, err = http.NewRequest(method, url, bytes.NewReader(buf))
	} else {
		req, err = http.NewRequest(method, url, nil)
	}
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		log.Fatal(err)
	}
	mt.bytes += int64(raw.Len())
	if resp.StatusCode >= 300 {
		log.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, raw.String())
	}
	if out != nil {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			log.Fatal(err)
		}
	}
}

// clientCG is the naive mode: textbook CG with the SpMV outsourced to
// POST /mul, everything else local.
func clientCG(mt *meter, hc *server.HTTPClient, b []float64, tol float64, maxIter int) (x []float64, iters int, relres float64) {
	n := len(b)
	x = make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	rr := dot(r, r)
	bnorm := math.Sqrt(rr)
	for iters = 0; iters < maxIter && math.Sqrt(rr)/bnorm > tol; iters++ {
		ap, err := hc.MulOpts("poisson", p, server.MulOptions{})
		if err != nil {
			log.Fatal(err)
		}
		mt.bytes += 8 * int64(len(p)+len(ap)) // binary bodies, both directions
		alpha := rr / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		rr = rrNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	return x, iters, math.Sqrt(rr) / bnorm
}

// sessionCG is the resident mode: one solve request, then status polls.
func sessionCG(mt *meter, base string, b []float64, tol float64, maxIter int) server.SolveStatus {
	var st server.SolveStatus
	call(mt, "POST", base+"/v1/matrices/poisson/solve",
		server.SolveRequest{Method: "cg", B: b, Tol: tol, MaxIters: maxIter}, &st)
	for st.State == "running" {
		call(mt, "GET", base+"/v1/solve/"+st.SID+"?wait=1s", nil, &st)
	}
	if st.State != "converged" {
		log.Fatalf("session ended %q after %d iters: %s", st.State, st.Iters, st.Error)
	}
	return st
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
