package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/partition"
)

func TestWideCSRMatchesPerVectorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := fillRandom(matrix.NewCOO(80, 120), rng, 1500)
	csr, _ := matrix.NewCSR[uint32](m)
	for _, nv := range []int{1, 2, 3, 4, 7, 8} {
		w, err := NewWide(csr, nv)
		if err != nil {
			t.Fatal(err)
		}
		if w.Width() != nv {
			t.Errorf("width %d", w.Width())
		}
		xs := make([][]float64, nv)
		wants := make([][]float64, nv)
		for v := range xs {
			xs[v] = make([]float64, 120)
			for i := range xs[v] {
				xs[v][i] = rng.NormFloat64()
			}
			wants[v] = make([]float64, 80)
			reference(m, wants[v], xs[v])
		}
		xBlock, err := Interleave(xs)
		if err != nil {
			t.Fatal(err)
		}
		yBlock := make([]float64, 80*nv)
		if err := w.MulAddBlock(yBlock, xBlock); err != nil {
			t.Fatal(err)
		}
		got, err := Deinterleave(yBlock, nv)
		if err != nil {
			t.Fatal(err)
		}
		for v := range got {
			if d := maxAbsDiff(got[v], wants[v]); d > 1e-12 {
				t.Errorf("nv=%d vector %d: diff %g", nv, v, d)
			}
		}
	}
}

// TestWideCSRRowBandsTileFullSweep verifies the row-decomposition contract
// the serving layer's fused sweeps stand on: a parallel wide kernel over
// any tiling of [0, R) into CSR row bands is bitwise equal to one serial
// wide sweep, at unrolled and generic widths alike.
func TestWideCSRRowBandsTileFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := fillRandom(matrix.NewCOO(97, 61), rng, 1200)
	csr, _ := matrix.NewCSR[uint32](m)
	for _, nv := range []int{1, 2, 3, 4, 6, 8} {
		w, err := NewWide(csr, nv)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 61*nv)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, 97*nv)
		if err := w.MulAddBlock(want, x); err != nil {
			t.Fatal(err)
		}
		for _, bounds := range [][]int{
			{0, 97},
			{0, 1, 97},
			{0, 30, 31, 96, 97},
			{0, 10, 20, 40, 80, 97},
		} {
			var parts []Part
			for i := 0; i+1 < len(bounds); i++ {
				lo, hi := bounds[i], bounds[i+1]
				sub, err := matrix.NewCSR[uint32](csr.SubmatrixCOO(lo, hi, 0, csr.C))
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, Part{Range: partition.Range{Lo: lo, Hi: hi}, Enc: sub})
			}
			p, err := NewParallel(csr.R, csr.C, parts)
			if err != nil {
				t.Fatal(err)
			}
			wp, err := NewWideParallel(p, nv)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, 97*nv)
			if err := wp.MulAddBlock(got, x); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("nv=%d bounds=%v: element %d not bitwise equal to the full sweep", nv, bounds, i)
				}
			}
		}
	}
}

func TestWideCSRValidation(t *testing.T) {
	m := matrix.NewCOO(4, 4)
	csr, _ := matrix.NewCSR[uint32](m)
	if _, err := NewWide(csr, 0); err == nil {
		t.Error("0 vectors accepted")
	}
	w, _ := NewWide(csr, 2)
	if err := w.MulAddBlock(make([]float64, 8), make([]float64, 7)); err == nil {
		t.Error("bad x length accepted")
	}
	if err := w.MulAddBlock(make([]float64, 7), make([]float64, 8)); err == nil {
		t.Error("bad y length accepted")
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	vs := [][]float64{{1, 2, 3}, {4, 5, 6}}
	block, err := Interleave(vs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 4, 2, 5, 3, 6}
	for i := range want {
		if block[i] != want[i] {
			t.Fatalf("block %v", block)
		}
	}
	back, err := Deinterleave(block, 2)
	if err != nil {
		t.Fatal(err)
	}
	for v := range vs {
		for i := range vs[v] {
			if back[v][i] != vs[v][i] {
				t.Fatal("round trip mismatch")
			}
		}
	}
	if _, err := Interleave(nil); err == nil {
		t.Error("empty interleave accepted")
	}
	if _, err := Interleave([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged interleave accepted")
	}
	if _, err := Deinterleave([]float64{1, 2, 3}, 2); err == nil {
		t.Error("indivisible deinterleave accepted")
	}
}

func TestQuickWideCSRAgreesWithSingle(t *testing.T) {
	f := func(seed int64, nv8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m := fillRandom(matrix.NewCOO(rows, cols), rng, rng.Intn(rows*cols+1))
		csr, err := matrix.NewCSR[uint32](m)
		if err != nil {
			return false
		}
		nv := int(nv8%6) + 1
		w, err := NewWide(csr, nv)
		if err != nil {
			return false
		}
		xs := make([][]float64, nv)
		for v := range xs {
			xs[v] = make([]float64, cols)
			for i := range xs[v] {
				xs[v][i] = rng.NormFloat64()
			}
		}
		xBlock, err := Interleave(xs)
		if err != nil {
			return false
		}
		yBlock := make([]float64, rows*nv)
		if err := w.MulAddBlock(yBlock, xBlock); err != nil {
			return false
		}
		got, err := Deinterleave(yBlock, nv)
		if err != nil {
			return false
		}
		for v := range got {
			want := make([]float64, rows)
			reference(m, want, xs[v])
			if maxAbsDiff(got[v], want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
