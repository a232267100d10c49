package main

import (
	"fmt"
	"math"
	"math/rand"

	spmv "repro"
	"repro/internal/server"
)

// The generated inputs. The server only ever sees these matrices and
// vectors; every one is a function of the run's seed.
const (
	lpScale  = 0.05 // LP twin: 214×55000, ~604k nonzeros
	femScale = 0.1  // FEM/Cantilever twin: 6200², ~397k nonzeros
)

// stream derives an independent generator seed for one input stream.
func stream(seed, id int64) int64 { return seed*1_000_003 + id }

// randVec returns n standard-normal values.
func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func lpTwin(seed int64) (*spmv.Matrix, error) { return spmv.GenerateSuite("LP", lpScale, seed) }

func femTwin(seed int64) (*spmv.Matrix, error) {
	return spmv.GenerateSuite("FEM/Cantilever", femScale, seed)
}

// spdTwin turns the FEM/Cantilever twin into a symmetric positive definite
// matrix: symmetrized, every off-diagonal set to −|a|, and the diagonal set
// to the row's off-diagonal absolute sum plus 1e-3 × the mean of those
// sums. Strict diagonal dominance with a positive diagonal makes it SPD.
func spdTwin(seed int64) (*spmv.Matrix, error) {
	fem, err := femTwin(seed)
	if err != nil {
		return nil, err
	}
	sym, err := spmv.Symmetrize(fem)
	if err != nil {
		return nil, err
	}
	n, _ := sym.Dims()
	rowSum := make([]float64, n)
	sym.Entries(func(i, j int, v float64) {
		if i != j {
			rowSum[i] += math.Abs(v)
		}
	})
	var mean float64
	for _, v := range rowSum {
		mean += v
	}
	mean /= float64(n)
	spd := spmv.NewMatrix(n, n)
	var setErr error
	sym.Entries(func(i, j int, v float64) {
		if i != j && setErr == nil {
			setErr = spd.Set(i, j, -math.Abs(v))
		}
	})
	for i := 0; i < n && setErr == nil; i++ {
		setErr = spd.Set(i, i, rowSum[i]+1e-3*mean)
	}
	if setErr != nil {
		return nil, setErr
	}
	if !spd.IsSymmetric() {
		return nil, fmt.Errorf("spd twin is not symmetric")
	}
	return spd, nil
}

// patchBatch returns the k-th batch of the mutation stream: size seeded
// "set" deltas at random coordinates of a rows×cols matrix.
func patchBatch(seed int64, k, size, rows, cols int) []server.Delta {
	rng := rand.New(rand.NewSource(stream(seed, 1000+int64(k))))
	ds := make([]server.Delta, size)
	for i := range ds {
		ds[i] = server.Delta{Op: "set", Row: int32(rng.Intn(rows)), Col: int32(rng.Intn(cols)), Val: rng.NormFloat64()}
	}
	return ds
}

// serverConfig is spmv-serve's configuration with no flags: the library
// default plus the 30-second re-tune scan the command enables.
func serverConfig() server.Config {
	cfg := server.DefaultConfig()
	cfg.RetuneInterval = cmdRetuneInterval
	return cfg
}

// bitwiseEqual reports whether got and want hold identical float64 bits.
func bitwiseEqual(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// finite reports whether v has length n and only finite values.
func finite(v []float64, n int) bool {
	if len(v) != n {
		return false
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
