package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRunDrainsInFlightRequest cancels run's context while a Mul is in
// flight (lingering in a long batch window) and requires the request to
// complete with the right answer, run to return cleanly, and the listener
// to refuse new connections afterwards.
func TestRunDrainsInFlightRequest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-adaptive=false", "-batch-window", "400ms",
			"-retune-interval", "0", "-log-level", "error",
		}, func(addr string) { addrs <- addr })
	}()
	var base string
	select {
	case a := <-addrs:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("run exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("listener not up after 10s")
	}

	resp, err := http.Post(base+"/v1/matrices", "application/json",
		strings.NewReader(`{"id":"tiny","rows":2,"cols":3,"entries":[[0,0,2],[0,2,1],[1,1,3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d", resp.StatusCode)
	}

	type result struct {
		status int
		y      []float64
		err    error
	}
	results := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/matrices/tiny/mul", "application/json", strings.NewReader(`{"x":[1,2,3]}`))
		if err != nil {
			results <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var body struct{ Y []float64 }
		err = json.NewDecoder(resp.Body).Decode(&body)
		results <- result{status: resp.StatusCode, y: body.Y, err: err}
	}()

	// Cancel only once the Mul has been admitted: it then sits in the
	// batch window, in flight, while the drain begins.
	deadline := time.Now().Add(5 * time.Second)
	for admittedMuls(t, base) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("Mul never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()

	select {
	case r := <-results:
		if r.err != nil || r.status != http.StatusOK || len(r.y) != 2 || r.y[0] != 5 || r.y[1] != 6 {
			t.Fatalf("in-flight Mul across shutdown: status %d y %v err %v, want 200 [5 6]", r.status, r.y, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight Mul did not complete")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after drain")
	}
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// admittedMuls reads spmv_serve_requests_total from /metrics.
func admittedMuls(t *testing.T, base string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "spmv_serve_requests_total "); ok {
			var n float64
			if err := json.Unmarshal([]byte(v), &n); err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

// TestRunUsageErrors checks that command-line mistakes surface as usage
// errors before anything listens.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-log-level", "loud"},
		{"-default-class", "urgent"},
	} {
		err := run(context.Background(), args, nil)
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
}
