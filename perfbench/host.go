package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// rssPeakMiB returns the process's peak resident set (VmHWM) in MiB.
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPUFraction returns runtime.MemStats.GCCPUFraction.
func gcCPUFraction() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.GCCPUFraction
}

// triadGBs is a STREAM-triad probe on the standard library: a = b + s·c
// over three arrays of arrayMiB each, split across GOMAXPROCS goroutines,
// best of passes. STREAM counts 24 bytes per element (two loads, one
// store); write-allocate traffic is not counted, as in STREAM.
func triadGBs(arrayMiB, passes int) float64 {
	n := arrayMiB << 20 / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	parts := runtime.GOMAXPROCS(0)
	best := time.Duration(1<<63 - 1)
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for k := 0; k < parts; k++ {
			lo, hi := k*n/parts, (k+1)*n/parts
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if a[n-1] != 7 {
		panic("triad: wrong result")
	}
	a, b, c = nil, nil, nil
	debug.FreeOSMemory()
	return float64(3*8*n) / best.Seconds() / 1e9
}
