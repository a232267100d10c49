package main

import (
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// closedLatencies is a closed loop's outcome.
type closedLatencies struct {
	ms      []float64 // successful operations' latencies
	elapsed time.Duration
}

// rate is successful operations per second.
func (c closedLatencies) rate() float64 { return float64(len(c.ms)) / c.elapsed.Seconds() }

// closedLoop runs clients goroutines that each issue op back to back:
// untimed for warmup, then timed for d. op returns whether the operation
// succeeded with correct output; failures are excluded from the latencies
// and counted by op itself. Warm-up operations are attempted and checked
// like the rest but neither timed nor traced. Each timed operation is one
// traced request whose root span covers it.
func closedLoop(e *env, clients int, warmup, d time.Duration, op func(g int, req int64, tr *tracer) bool, tr *tracer) closedLatencies {
	var mu sync.Mutex
	var out closedLatencies
	var wg sync.WaitGroup
	start := time.Now().Add(warmup)
	end := start.Add(d)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []float64
			for time.Now().Before(start) {
				e.attempted.Add(1)
				op(g, 0, nil)
			}
			for time.Now().Before(end) {
				req := tr.newID()
				e.attempted.Add(1)
				t0 := time.Now()
				ok := op(g, req, tr)
				t1 := time.Now()
				tr.root(req, "bench", "request", t0, t1)
				if ok {
					mine = append(mine, ms(t1.Sub(t0)))
				}
			}
			mu.Lock()
			out.ms = append(out.ms, mine...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// openLoop offers requests at rate for d: request i is due at
// start + i/rate, and the generator starts it on its own goroutine once
// due, whatever is still in flight. A request due while maxInFlight are
// outstanding is shed: never sent, it misses the phase's limit but is no
// failure of the program. openLoop returns after every request finished.
func openLoop(e *env, rate float64, d time.Duration, maxInFlight int, op func(i int, req int64) bool, tr *tracer) []arrival {
	n := int(rate * d.Seconds())
	arr := make([]arrival, n)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range arr {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		arr[i].due, arr[i].sent = due, time.Now()
		select {
		case sem <- struct{}{}:
		default:
			arr[i].done, arr[i].shed = arr[i].sent, true
			continue
		}
		e.attempted.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := tr.newID()
			ok := op(i, req)
			arr[i].done, arr[i].ok = time.Now(), ok
			tr.root(req, "bench", "request", arr[i].due, arr[i].done)
			<-sem
		}(i)
	}
	wg.Wait()
	return arr
}

// front serves a Server's Handler on a 127.0.0.1 listener, with an
// HTTPClient whose transport opens at most one connection per client.
// It owns the Server: close stops both.
type front struct {
	srv  *server.Server
	hs   *http.Server
	tr   *http.Transport
	hc   *server.HTTPClient
	done sync.WaitGroup
}

func startFront(s *server.Server, clients int) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{
		srv: s,
		hs:  &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		tr:  &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
	}
	f.hc = server.NewHTTPClient("http://"+ln.Addr().String(), &http.Client{Transport: f.tr, Timeout: 60 * time.Second})
	f.done.Add(1)
	go func() {
		defer f.done.Done()
		_ = f.hs.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	return f, nil
}

// close stops the listener and its connections, waits for Serve, and
// closes the Server. A nil front is already closed.
func (f *front) close() {
	if f == nil {
		return
	}
	_ = f.hs.Close()
	f.done.Wait()
	f.tr.CloseIdleConnections()
	f.srv.Close()
}
