package spmv_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	spmv "repro"
)

// buildRandom fills an n×m matrix with k random entries.
func buildRandom(t testing.TB, rng *rand.Rand, rows, cols, k int) *spmv.Matrix {
	t.Helper()
	m := spmv.NewMatrix(rows, cols)
	for i := 0; i < k; i++ {
		if err := m.Set(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// naiveMul computes y = A x via the Entries iterator.
func naiveMul(m *spmv.Matrix, x []float64) []float64 {
	rows, _ := m.Dims()
	y := make([]float64, rows)
	m.Entries(func(i, j int, v float64) { y[i] += v * x[j] })
	return y
}

func TestCompileAndMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := buildRandom(t, rng, 200, 300, 2500)
	x := make([]float64, 300)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := naiveMul(m, x)

	for _, opts := range []spmv.TuneOptions{
		spmv.NaiveOptions(),
		spmv.DefaultTuneOptions(),
		{RegisterBlock: true, ReduceIndices: true},
	} {
		op, err := spmv.Compile(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := op.Mul(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("%s: row %d: %g vs %g", op.KernelName(), i, got[i], want[i])
			}
		}
	}
}

func TestCompileParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := buildRandom(t, rng, 500, 500, 8000)
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	serial, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	ys, err := serial.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 3, 8} {
		par, err := spmv.CompileParallel(m, spmv.DefaultTuneOptions(), threads, 2)
		if err != nil {
			t.Fatal(err)
		}
		if par.Threads() != threads {
			t.Errorf("threads %d, want %d", par.Threads(), threads)
		}
		yp, err := par.Mul(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range yp {
			if math.Abs(yp[i]-ys[i]) > 1e-9 {
				t.Fatalf("threads=%d row %d: %g vs %g", threads, i, yp[i], ys[i])
			}
		}
	}
	if _, err := spmv.CompileParallel(m, spmv.DefaultTuneOptions(), 0, 1); err == nil {
		t.Error("0 threads accepted")
	}
}

func TestMulAddAccumulates(t *testing.T) {
	m := spmv.NewMatrix(2, 2)
	if err := m.Set(0, 0, 3); err != nil {
		t.Fatal(err)
	}
	op, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{10, 20}
	if err := op.MulAdd(y, []float64{2, 0}); err != nil {
		t.Fatal(err)
	}
	if y[0] != 16 || y[1] != 20 {
		t.Errorf("y = %v, want [16 20]", y)
	}
}

func TestSetBounds(t *testing.T) {
	m := spmv.NewMatrix(2, 2)
	if err := m.Set(2, 0, 1); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := m.Set(0, -1, 1); err == nil {
		t.Error("negative col accepted")
	}
}

func TestDuplicatesSummedAtCompile(t *testing.T) {
	m := spmv.NewMatrix(1, 1)
	_ = m.Set(0, 0, 2)
	_ = m.Set(0, 0, 3)
	op, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	y, err := op.Mul([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 5 {
		t.Errorf("duplicate sum: %g, want 5", y[0])
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := buildRandom(t, rng, 30, 40, 200)
	var buf bytes.Buffer
	if err := m.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := spmv.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r1, c1 := m.Dims()
	r2, c2 := got.Dims()
	if r1 != r2 || c1 != c2 || m.NNZ() != got.NNZ() {
		t.Fatalf("round trip changed shape: %dx%d/%d vs %dx%d/%d",
			r1, c1, m.NNZ(), r2, c2, got.NNZ())
	}
	if _, err := spmv.ReadMatrixMarket(strings.NewReader("junk")); err == nil {
		t.Error("junk accepted")
	}
}

func TestGenerateSuiteNames(t *testing.T) {
	names := spmv.SuiteNames()
	if len(names) != 14 {
		t.Fatalf("%d suite names", len(names))
	}
	m, err := spmv.GenerateSuite("QCD", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() == 0 {
		t.Error("empty QCD twin")
	}
	if _, err := spmv.GenerateSuite("Bogus", 0.01, 5); err == nil {
		t.Error("unknown suite name accepted")
	}
	st := m.Stats()
	if st.Rows == 0 || st.NNZPerRow <= 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestSavingsAndFootprint(t *testing.T) {
	m, err := spmv.GenerateSuite("FEM/Cantilever", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	if naive.Savings() != 0 {
		t.Errorf("naive savings %.2f, want 0", naive.Savings())
	}
	if tuned.Savings() <= 0.1 {
		t.Errorf("tuned savings %.2f, want > 0.1 on a FEM matrix", tuned.Savings())
	}
	if tuned.FootprintBytes() >= naive.FootprintBytes() {
		t.Error("tuning did not shrink the footprint")
	}
	if len(tuned.Decisions()) == 0 {
		t.Error("no decisions recorded")
	}
	if tuned.NNZ() != naive.NNZ() {
		t.Error("nnz changed under tuning")
	}
}

func TestEntriesIteration(t *testing.T) {
	m := spmv.NewMatrix(3, 3)
	_ = m.Set(0, 1, 2)
	_ = m.Set(2, 2, 4)
	var count int
	var sum float64
	m.Entries(func(i, j int, v float64) {
		count++
		sum += v
	})
	if count != 2 || sum != 6 {
		t.Errorf("count %d sum %g", count, sum)
	}
}

// Property: the public API computes the same product as the naive triple
// loop for arbitrary matrices and tuning options.
func TestQuickPublicAPICorrectness(t *testing.T) {
	f := func(seed int64, flags uint8, threads8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		m := spmv.NewMatrix(rows, cols)
		k := rng.Intn(rows * cols)
		for i := 0; i < k; i++ {
			if m.Set(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()) != nil {
				return false
			}
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := naiveMul(m, x)

		opt := spmv.TuneOptions{
			RegisterBlock: flags&1 != 0,
			ReduceIndices: flags&2 != 0,
			AllowBCOO:     flags&4 != 0,
		}
		threads := int(threads8%4) + 1
		op, err := spmv.CompileParallel(m, opt, threads, 1)
		if err != nil {
			return false
		}
		got, err := op.Mul(x)
		if err != nil {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCompileSymmetric(t *testing.T) {
	// Symmetric 2D Laplacian.
	const side = 20
	n := side * side
	m := spmv.NewMatrix(n, n)
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := at(r, c)
			_ = m.Set(i, i, 4)
			for _, d := range [2][2]int{{1, 0}, {0, 1}} {
				rr, cc := r+d[0], c+d[1]
				if rr < side && cc < side {
					_ = m.Set(i, at(rr, cc), -1)
					_ = m.Set(at(rr, cc), i, -1)
				}
			}
		}
	}
	sym, err := spmv.CompileSymmetric(m)
	if err != nil {
		t.Fatal(err)
	}
	full, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sym.FootprintBytes() >= full.FootprintBytes() {
		t.Errorf("symmetric footprint %d not below full %d",
			sym.FootprintBytes(), full.FootprintBytes())
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	ys, err := sym.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	yf, err := full.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ys {
		if math.Abs(ys[i]-yf[i]) > 1e-9 {
			t.Fatalf("row %d: %g vs %g", i, ys[i], yf[i])
		}
	}
	// Asymmetric input must be rejected.
	bad := spmv.NewMatrix(2, 2)
	_ = bad.Set(0, 1, 1)
	if _, err := spmv.CompileSymmetric(bad); err == nil {
		t.Error("asymmetric matrix accepted")
	}
}

func TestCompileMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := buildRandom(t, rng, 60, 80, 900)
	op, err := spmv.Compile(m, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	const nv = 3
	multi, err := spmv.CompileMulti(m, nv)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Vectors() != nv {
		t.Errorf("vectors %d", multi.Vectors())
	}
	xs := make([][]float64, nv)
	for v := range xs {
		xs[v] = make([]float64, 80)
		for i := range xs[v] {
			xs[v][i] = rng.NormFloat64()
		}
	}
	got, err := multi.MulAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	for v := range xs {
		want, err := op.Mul(xs[v])
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[v][i]-want[i]) > 1e-9 {
				t.Fatalf("vector %d row %d: %g vs %g", v, i, got[v][i], want[i])
			}
		}
	}
	// Wrong vector count rejected.
	if _, err := multi.MulAll(xs[:2]); err == nil {
		t.Error("wrong vector count accepted")
	}
	if _, err := spmv.CompileMulti(m, 0); err == nil {
		t.Error("0 vectors accepted")
	}
}

func TestReorderRCM(t *testing.T) {
	// Shuffled banded matrix: RCM must narrow it and preserve products.
	const n = 150
	rng := rand.New(rand.NewSource(15))
	shuffle := rng.Perm(n)
	m := spmv.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		_ = m.Set(shuffle[i], shuffle[i], 2)
		if i+1 < n {
			_ = m.Set(shuffle[i], shuffle[i+1], -1)
			_ = m.Set(shuffle[i+1], shuffle[i], -1)
		}
	}
	rm, ro, err := spmv.ReorderRCM(m)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Stats().Bandwidth >= m.Stats().Bandwidth/4 {
		t.Errorf("RCM bandwidth %d not far below original %d",
			rm.Stats().Bandwidth, m.Stats().Bandwidth)
	}
	op, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	rop, err := spmv.Compile(rm, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, err := op.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	py, err := rop.Mul(ro.Permute(x))
	if err != nil {
		t.Fatal(err)
	}
	got := ro.Unpermute(py)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("row %d: %g vs %g", i, got[i], want[i])
		}
	}
	// Rectangular matrices are rejected.
	rect := spmv.NewMatrix(2, 3)
	if _, _, err := spmv.ReorderRCM(rect); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

// TestOperatorMultiRHSHooks covers the multi-RHS hooks: cached Multi
// views, a fused sweep through them and through a parallel operator's
// wide view under an external executor, and Traffic.
func TestOperatorMultiRHSHooks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	m := buildRandom(t, rng, 120, 90, 1000)
	op, err := spmv.Compile(m, spmv.DefaultTuneOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Multi views are cached per width.
	mo4a, err := op.Multi(4)
	if err != nil {
		t.Fatal(err)
	}
	mo4b, err := op.Multi(4)
	if err != nil {
		t.Fatal(err)
	}
	if mo4a != mo4b {
		t.Error("Multi(4) not cached")
	}
	if mo2, err := op.Multi(2); err != nil || mo2 == mo4a {
		t.Errorf("Multi(2) = %v, %v", mo2, err)
	}
	if r, c := mo4a.Dims(); r != 120 || c != 90 {
		t.Errorf("multi dims %dx%d", r, c)
	}

	// A fused sweep — through the CSR view, and through a parallel
	// operator's wide view with its thread parts run by an external
	// executor — matches per-vector reference Muls.
	xs := make([][]float64, 4)
	for v := range xs {
		xs[v] = make([]float64, 90)
		for i := range xs[v] {
			xs[v][i] = rng.NormFloat64()
		}
	}
	xBlock, err := spmv.Interleave(xs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := spmv.CompileParallel(m, spmv.NaiveOptions(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	pmo, err := par.WideMulti(4)
	if err != nil {
		t.Fatal(err)
	}
	serialRun := func(tasks []func()) {
		for _, task := range tasks {
			task()
		}
	}
	sweeps := map[string]func(y []float64) error{
		"multi":         func(y []float64) error { return mo4a.MulAddBlock(y, xBlock) },
		"parallel-wide": func(y []float64) error { return pmo.MulAddBlockExec(y, xBlock, serialRun) },
	}
	for name, sweep := range sweeps {
		yBlock := make([]float64, 120*4)
		if err := sweep(yBlock); err != nil {
			t.Fatal(err)
		}
		ys, err := spmv.Deinterleave(yBlock, 4)
		if err != nil {
			t.Fatal(err)
		}
		for v := range ys {
			want := naiveMul(m, xs[v])
			for i := range want {
				if math.Abs(ys[v][i]-want[i]) > 1e-9 {
					t.Fatalf("%s: vector %d row %d: %g vs %g", name, v, i, ys[v][i], want[i])
				}
			}
		}
	}

	// Traffic models the sweep and scales under MultiRHS.
	tr, err := op.Traffic(spmv.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.MatrixBytes <= 0 || tr.Flops != 2*op.NNZ() {
		t.Errorf("traffic %+v", tr)
	}
	fused := tr.MultiRHS(4)
	if fused.MatrixBytes != tr.MatrixBytes || fused.Flops != 4*tr.Flops || fused.SourceBytes != 4*tr.SourceBytes {
		t.Errorf("MultiRHS scaling wrong: %+v vs %+v", fused, tr)
	}

	// Symmetric operators route Multi through the symmetric sweep.
	sym := spmv.NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		if err := sym.Set(i, i, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	sop, err := spmv.CompileSymmetric(sym)
	if err != nil {
		t.Fatal(err)
	}
	smo, err := sop.Multi(2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := smo.MulAll([][]float64{{1, 1, 1}, {2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if sys[0][0] != 1 || sys[0][1] != 2 || sys[0][2] != 3 || sys[1][2] != 6 {
		t.Errorf("symmetric MulAll = %v", sys)
	}
}

// TestSymmetrizeAndCompileSymmetricParallel covers the public symmetric
// pipeline: Symmetrize makes any square matrix exactly symmetric, the
// parallel operator matches the serial one bit for bit at every thread
// count, and its multi-RHS views reproduce the single-vector bits per
// lane while keeping the halved matrix stream.
func TestSymmetrizeAndCompileSymmetricParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := buildRandom(t, rng, 400, 400, 5000)
	if _, err := spmv.CompileSymmetric(m); err == nil {
		t.Fatal("random matrix unexpectedly symmetric")
	}
	sym, err := spmv.Symmetrize(m)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := spmv.CompileSymmetric(sym)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Symmetric() || serial.KernelName() != "symcsr" {
		t.Errorf("serial operator: symmetric=%v kernel=%q", serial.Symmetric(), serial.KernelName())
	}
	if serial.FootprintBytes() >= serial.BaselineBytes() {
		t.Errorf("symmetric footprint %d not below CSR32 baseline %d",
			serial.FootprintBytes(), serial.BaselineBytes())
	}
	d := serial.Decisions()
	if len(d) != 1 || d[0].Format != "SymCSR" {
		t.Errorf("decisions = %+v", d)
	}

	x := make([]float64, 400)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, err := serial.Mul(x)
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy against the assembled entries.
	ref := naiveMul(sym, x)
	for i := range want {
		if math.Abs(want[i]-ref[i]) > 1e-9 {
			t.Fatalf("row %d: %g vs %g", i, want[i], ref[i])
		}
	}
	// Bit-parity across thread counts.
	for _, threads := range []int{2, 4} {
		par, err := spmv.CompileSymmetricParallel(sym, threads)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Mul(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("threads=%d row %d: %x vs %x", threads, i, got[i], want[i])
			}
		}
		// Multi-RHS lanes reproduce the width-1 bits.
		mo, err := par.Multi(4)
		if err != nil {
			t.Fatal(err)
		}
		ys, err := mo.MulAll([][]float64{x, x, x, x})
		if err != nil {
			t.Fatal(err)
		}
		for v := range ys {
			for i := range ys[v] {
				if ys[v][i] != want[i] {
					t.Fatalf("threads=%d lane %d row %d: %x vs %x", threads, v, i, ys[v][i], want[i])
				}
			}
		}
	}

	if _, err := spmv.CompileSymmetricParallel(sym, 0); err == nil {
		t.Error("threads=0 accepted")
	}
	rect := spmv.NewMatrix(2, 3)
	if _, err := spmv.Symmetrize(rect); err == nil {
		t.Error("rectangular Symmetrize accepted")
	}
}

// TestSymmetricTrafficHalvesMatrixStream checks the traffic model: the
// symmetric operator's modeled matrix stream is roughly half the plain
// CSR32 operator's on the same matrix.
func TestSymmetricTrafficHalvesMatrixStream(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sym, err := spmv.Symmetrize(buildRandom(t, rng, 300, 300, 6000))
	if err != nil {
		t.Fatal(err)
	}
	sop, err := spmv.CompileSymmetricParallel(sym, 2)
	if err != nil {
		t.Fatal(err)
	}
	gop, err := spmv.Compile(sym, spmv.NaiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sop.Traffic(spmv.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gt, err := gop.Traffic(spmv.TrafficOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MatrixBytes <= 0 || float64(st.MatrixBytes) > 0.62*float64(gt.MatrixBytes) {
		t.Errorf("symmetric matrix stream %d B vs general %d B: not halved", st.MatrixBytes, gt.MatrixBytes)
	}
	if st.Flops != 2*sop.NNZ() {
		t.Errorf("flops %d, want %d", st.Flops, 2*sop.NNZ())
	}
}
