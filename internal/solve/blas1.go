// Package solve implements the iterative methods that motivate the
// paper's SpMV optimization work — Williams et al. open by noting SpMV
// "dominates the performance of diverse applications in scientific and
// engineering computing"; the applications in question are outer solvers
// that call the kernel thousands of times. The package provides
// unpreconditioned Conjugate Gradient (symmetric positive definite
// operators) and power iteration (general square operators) as stateful
// steppers: construct once, Step per iteration, observe the residual
// history between steps. The serving layer hosts them as server-resident
// solver sessions whose vectors never leave the process.
//
// Both solvers consume the operator only through an Apply function, so
// any SpMV path works: a compiled spmv.Operator, the serving layer's
// snapshot-swapped fused path, or a test stub.
//
// Determinism: the BLAS-1 reductions (Dot, Norm2) come in two modes. In
// deterministic mode every reduction is computed over fixed 1024-element
// blocks whose partials are summed in ascending block order — a summation
// tree that depends only on the vector length, never on the thread count,
// so solver trajectories are bit-reproducible across Threads settings
// whenever Apply is too. In parallel (non-deterministic) mode each thread
// sums one contiguous chunk and the chunk partials are added in chunk
// order: fastest, but the bits shift with Threads. Dot, Axpy and Xpay
// round every product (float64 conversions) before it is added, so no
// architecture may fuse a multiply-add and move the bits off amd64's.
package solve

import (
	"math"
	"sync"
)

// detBlockLen is the fixed reduction-block length of deterministic mode.
// The summation tree is (⌈n/1024⌉ ordered partials, each a sequential
// 1024-element sum) for every thread count — small enough that partials
// parallelize, large enough that the serial combine is noise.
const detBlockLen = 1024

// parallelGrain is the minimum per-thread element count worth a
// goroutine; below it the work runs on the calling goroutine. Execution
// strategy never changes the summation tree, so this threshold affects
// wall-clock only, never bits.
const parallelGrain = 2048

// BLAS is a configured set of fused BLAS-1 operations. The zero value is
// serial and non-deterministic-mode (which coincide: one thread's chunked
// reduction is the plain sequential sum).
type BLAS struct {
	// Threads is the parallel width; <= 1 means serial.
	Threads int
	// Deterministic selects the ordered fixed-block reduction whose bits
	// are invariant to Threads.
	Deterministic bool
}

func (b BLAS) threads() int {
	if b.Threads < 1 {
		return 1
	}
	return b.Threads
}

// ranges splits [0, n) into parts contiguous ranges of near-equal length.
func ranges(n, parts int) [][2]int {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([][2]int, 0, parts)
	for p := 0; p < parts; p++ {
		lo := n * p / parts
		hi := n * (p + 1) / parts
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// runParts executes f(part) for every part index, spreading parts over at
// most threads goroutines when each goroutine's share of totalWork (in
// elements) is large enough to pay for it — deterministic mode has many
// small fixed blocks, so the gate must look at the per-goroutine batch,
// not the per-part size. The assignment of parts to goroutines never
// affects results: every part writes only its own slot.
func runParts(parts, threads, totalWork int, f func(part int)) {
	if threads > parts {
		threads = parts
	}
	if threads <= 1 || totalWork/threads < parallelGrain {
		for p := 0; p < parts; p++ {
			f(p)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(threads - 1)
	for w := 1; w < threads; w++ {
		go func(w int) {
			defer wg.Done()
			for p := w; p < parts; p += threads {
				f(p)
			}
		}(w)
	}
	for p := 0; p < parts; p += threads {
		f(p)
	}
	wg.Wait()
}

// reduce computes the sum of partial(lo, hi) over [0, n) under the
// configured mode. partial must be a pure sequential sum of its range.
func (b BLAS) reduce(n int, partial func(lo, hi int) float64) float64 {
	if n == 0 {
		return 0
	}
	var rs [][2]int
	if b.Deterministic {
		blocks := (n + detBlockLen - 1) / detBlockLen
		rs = make([][2]int, blocks)
		for i := range rs {
			lo := i * detBlockLen
			rs[i] = [2]int{lo, min(lo+detBlockLen, n)}
		}
	} else {
		rs = ranges(n, b.threads())
	}
	partials := make([]float64, len(rs))
	runParts(len(rs), b.threads(), n, func(p int) {
		partials[p] = partial(rs[p][0], rs[p][1])
	})
	var s float64
	for _, v := range partials {
		s += v
	}
	return s
}

// Dot returns xᵀy. It panics when the lengths differ (programmer error,
// like the stdlib's copy contract). The fixed-block partial sums reduce
// in block order, so the result bits are thread-count invariant — the
// solver-trajectory determinism contract.
//
//spmv:deterministic
func (b BLAS) Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("solve: Dot length mismatch")
	}
	return b.reduce(len(x), func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += float64(x[i] * y[i])
		}
		return s
	})
}

// Norm2 returns ‖x‖₂, the square root of the mode's Dot(x, x).
//
//spmv:deterministic
func (b BLAS) Norm2(x []float64) float64 {
	return math.Sqrt(b.Dot(x, x))
}

// Axpy computes y ← y + α·x. Element-wise, so its bits never depend on
// mode or thread count.
//
//spmv:deterministic
func (b BLAS) Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("solve: Axpy length mismatch")
	}
	rs := ranges(len(x), b.threads())
	runParts(len(rs), b.threads(), len(x), func(p int) {
		for i := rs[p][0]; i < rs[p][1]; i++ {
			y[i] += float64(alpha * x[i])
		}
	})
}

// Xpay computes y ← x + α·y — the CG search-direction update
// p = r + β·p. Element-wise, bit-stable under any mode.
//
//spmv:deterministic
func (b BLAS) Xpay(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("solve: Xpay length mismatch")
	}
	rs := ranges(len(x), b.threads())
	runParts(len(rs), b.threads(), len(x), func(p int) {
		for i := rs[p][0]; i < rs[p][1]; i++ {
			y[i] = x[i] + float64(alpha*y[i])
		}
	})
}

// Scale computes x ← α·x. Element-wise, bit-stable under any mode.
//
//spmv:deterministic
func (b BLAS) Scale(alpha float64, x []float64) {
	rs := ranges(len(x), b.threads())
	runParts(len(rs), b.threads(), len(x), func(p int) {
		for i := rs[p][0]; i < rs[p][1]; i++ {
			x[i] *= alpha
		}
	})
}
