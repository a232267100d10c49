package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	spmv "repro"
)

// TestOperatorSwapRace hammers one matrix from many clients while the
// serving snapshot is swapped under them — by the re-tuner's real
// promotion path and by a tight swap loop flipping between two
// generations — and while other registrations churn the registry
// (including the auto-symmetric footprint comparison and its loser
// eviction, and failed registrations backing entries out). Run under
// -race in CI. Serving is deterministic, so every response must stay
// bitwise identical no matter which snapshot a sweep landed on.
func TestOperatorSwapRace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.MaxBatch = 8
	cfg.BatchWindow = 100 * time.Microsecond
	cfg.Adaptive = true
	cfg.RetuneMinRequests = 8
	cfg.RetuneDrift = 0.2
	s := New(cfg)
	defer s.Close()

	m := testMatrix(t, 300, 280, 5000, 17)
	if _, err := s.Register("hot", "test", m); err != nil {
		t.Fatal(err)
	}
	e, err := s.Registry().Get("hot")
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	iters := 60
	if testing.Short() {
		iters = 20
	}
	xs := make([][]float64, clients)
	want := make([][]float64, clients)
	for g := range xs {
		xs[g] = testVector(280, int64(g+900))
		want[g] = mulBits(t, s, "hot", xs[g]) // deterministic: these bits are the contract
	}

	// Drive one real promotion so both generations exist, then flip
	// between the two snapshots while the hammer runs: every interleaving
	// of load-snapshot / swap must serve one coherent generation. How well
	// a burst coalesces depends on the scheduler (and -race slows it), so
	// keep bursting until the drift signal is strong enough to promote.
	gen0 := e.cur.Load()
	promoted := 0
	for round := 0; round < 40 && promoted == 0; round++ {
		burst(t, s, "hot", xs)
		if round >= 3 {
			promoted = s.RetuneOnce()
		}
	}
	if promoted != 1 {
		t.Fatalf("setup promotion did not happen")
	}
	gen1 := e.cur.Load()
	if gen0 == gen1 || !gen1.wide {
		t.Fatalf("promotion produced no new wide snapshot")
	}

	stop := make(chan struct{})
	var swaps atomic.Int64
	var bg sync.WaitGroup
	bg.Add(3)
	// Snapshot flipper: the adversarial swap-vs-inflight schedule. The
	// short sleep keeps the loop from starving the clients on small
	// GOMAXPROCS while still interleaving hundreds of swaps with sweeps.
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			if i%2 == 0 {
				e.cur.Store(gen0)
			} else {
				e.cur.Store(gen1)
			}
			swaps.Add(1)
		}
	}()
	// Background re-tune scans racing the flipper and the clients.
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				s.RetuneOnce()
			}
		}
	}()
	// Registry churn: auto-symmetric comparisons (with loser eviction)
	// and rejected registrations backing out, concurrent with serving.
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			sym, err := spmv.Symmetrize(testMatrix(t, 60, 60, 300, int64(i)))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Register(fmt.Sprintf("churn%d", i), "sym", sym); err != nil {
				t.Error(err)
				return
			}
			required := true
			if _, err := s.RegisterOpts(fmt.Sprintf("bad%d", i), "bad",
				testMatrix(t, 50, 40, 200, int64(i)), RegisterOptions{Symmetric: &required}); err == nil {
				t.Error("asymmetric matrix accepted with symmetric required")
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				y, err := s.Mul("hot", xs[g])
				if err != nil {
					errCh <- fmt.Errorf("client %d iter %d: %w", g, i, err)
					return
				}
				if !sameBits(y, want[g]) {
					errCh <- fmt.Errorf("client %d iter %d: bits changed under operator swap", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if swaps.Load() == 0 {
		t.Error("swap loop never ran")
	}
}
