package spmv_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	spmv "repro"
	"repro/internal/matrix"
	"repro/internal/server"
	"repro/internal/traffic"
)

// servingOperator returns the operator serving id: the one its serving
// snapshot holds.
func servingOperator(t *testing.T, s *server.Server, id string) *spmv.Operator {
	t.Helper()
	e, err := s.Registry().Get(id)
	if err != nil {
		t.Fatal(err)
	}
	op := e.Operator()
	if op == nil {
		t.Fatalf("%s has no serving operator", id)
	}
	return op
}

// TestServingNeverBuildsLazyCSR: a general matrix is served entirely by
// the operator it compiled — registration, lone and fused Mul, a solve
// session and a recompaction never build the second, whole-matrix CSR
// copy behind the library's CSR hooks.
func TestServingNeverBuildsLazyCSR(t *testing.T) {
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			cfg := server.DefaultConfig()
			cfg.Threads, cfg.Workers = threads, threads
			cfg.AutoSymmetric = false
			cfg.MaxBatch = 4
			cfg.BatchWindow = 20 * time.Millisecond
			cfg.Adaptive = false
			cfg.RecompactThreshold = -1 // recompact only on demand
			s := server.New(cfg)
			defer s.Close()

			m, err := spmv.GenerateSuite("FEM/Cantilever", 0.01, 3)
			if err != nil {
				t.Fatal(err)
			}
			rows, cols := m.Dims()
			info, err := s.Register("a", "fem", m)
			if err != nil {
				t.Fatal(err)
			}
			op := servingOperator(t, s, "a")
			if info.Kernel != op.KernelName() || info.Footprint != op.FootprintBytes() || info.Shards != threads {
				t.Fatalf("serving operator %q/%d does not match the registration info (%+v)", op.KernelName(), op.FootprintBytes(), info)
			}
			check := func(stage string, op *spmv.Operator) {
				t.Helper()
				if spmv.HasLazyCSR(op) {
					t.Fatalf("%s built the operator's lazy CSR copy", stage)
				}
			}
			check("Register", op)

			x := make([]float64, cols)
			for i := range x {
				x[i] = float64(i%7) - 3
			}
			if _, err := s.Mul("a", x); err != nil {
				t.Fatal(err)
			}
			check("lone Mul", op)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := s.Mul("a", x); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if s.Stats().FusedSweeps == 0 {
				t.Fatal("no fused sweep ran")
			}
			check("fused Mul", op)

			st, err := s.Solve("a", server.SolveRequest{Method: "power", MaxIters: 5})
			if err != nil {
				t.Fatal(err)
			}
			if st, err = s.SolveStatus(st.SID, 10*time.Second); err != nil || st.Iters == 0 {
				t.Fatalf("solve session: %+v, %v", st, err)
			}
			check("solve session", op)

			if _, err := s.Patch("a", []server.Delta{{Op: "set", Row: 0, Col: 0, Val: 2}, {Op: "add", Row: int32(rows - 1), Col: 1, Val: 1}}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Mul("a", x); err != nil {
				t.Fatal(err)
			}
			check("overlay Mul", op)
			if err := s.Recompact("a"); err != nil {
				t.Fatal(err)
			}
			folded := servingOperator(t, s, "a")
			if folded == op || s.Matrices()[0].Generation != 1 {
				t.Fatal("recompaction did not replace the serving operator")
			}
			if _, err := s.Mul("a", x); err != nil {
				t.Fatal(err)
			}
			check("recompaction", folded)
		})
	}
}

// TestLibraryCSRHooksBuildLazily: the library's CSR hooks still build
// their CSR copy — on first use, not at compile time — while the wide
// hooks never do.
func TestLibraryCSRHooksBuildLazily(t *testing.T) {
	m, err := spmv.GenerateSuite("LP", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	hooks := map[string]func(op *spmv.Operator) error{
		"Multi": func(op *spmv.Operator) error { _, err := op.Multi(2); return err },
		"MultiTraffic": func(op *spmv.Operator) error {
			_, err := op.MultiTraffic(spmv.TrafficOptions{})
			return err
		},
	}
	for name, hook := range hooks {
		op, err := spmv.CompileParallel(m, spmv.DefaultTuneOptions(), 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := op.WideMulti(2); err != nil {
			t.Fatal(err)
		}
		if _, err := op.WideTraffic(spmv.TrafficOptions{}); err != nil {
			t.Fatal(err)
		}
		if spmv.HasLazyCSR(op) {
			t.Fatalf("%s: compile or the wide hooks built the CSR copy", name)
		}
		if err := hook(op); err != nil {
			t.Fatal(err)
		}
		if !spmv.HasLazyCSR(op) {
			t.Errorf("%s did not build the CSR copy", name)
		}
	}
}

// TestWideTrafficSharedGatherMatchesWholeCSR: over a NaiveOptions
// operator's CSR32 thread parts, the shared source window WideTraffic
// carries across the parts charges exactly the whole-matrix CSR32's
// source bytes, at every thread count and with or without a capacity
// bound on the window.
func TestWideTrafficSharedGatherMatchesWholeCSR(t *testing.T) {
	for _, tc := range diffCases(t) {
		whole, err := matrix.NewCSR[uint32](tc.coo)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []spmv.TrafficOptions{{}, {SourceCapacityLines: 3}} {
			want, err := traffic.Analyze(whole, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 2, 4} {
				op, err := spmv.CompileParallel(tc.m, spmv.NaiveOptions(), threads, 1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := op.WideTraffic(opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.SourceBytes != want.SourceBytes {
					t.Errorf("%s/capacity=%d/threads=%d: WideTraffic SourceBytes %d, whole CSR32 %d",
						tc.name, opt.SourceCapacityLines, threads, got.SourceBytes, want.SourceBytes)
				}
				if spmv.HasLazyCSR(op) {
					t.Errorf("%s/threads=%d: WideTraffic built the CSR copy", tc.name, threads)
				}
			}
		}
	}
}
