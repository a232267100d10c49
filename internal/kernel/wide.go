package kernel

import (
	"fmt"
	"sync"

	"repro/internal/matrix"
)

// Wide is a width-k multi-RHS kernel bound to one encoded matrix: the
// multiple-vectors optimization (an OSKI capability, §2.1: "register- and
// cache-level blocking, exploiting symmetry, multiple vectors, ...").
// Multiplying k vectors in one sweep streams the matrix once instead of k
// times, raising the effective flop:byte ratio by nearly k — for
// bandwidth-bound SpMV the most effective bandwidth reduction available
// when there are several right-hand sides. Vectors are interleaved
// (X[j*k+v] is element j of vector v; see Interleave), so one gather of
// x_j serves all k lanes. A Wide kernel fuses them over ANY of the tuner's
// encodings — plain CSR, register-blocked, block-coordinate,
// cache-blocked, or symmetric — combining the paper's two biggest
// bandwidth reductions (data-structure compression and multiple vectors)
// in one sweep.
//
// Lanes are independent and each lane accumulates in the same order at
// every width, so lane v of a width-k sweep is bitwise identical to the
// width-1 sweep of the same kernel. CSR-backed Wide kernels accumulate
// each row strictly in column order, which is what lets a serving layer
// swap one CSR encoding (index width, row partition) for another without
// changing a single response bit.
type Wide interface {
	// MulAddBlock computes Y ← Y + A·X over interleaved width-k blocks.
	// Safe for concurrent use.
	MulAddBlock(yBlock, xBlock []float64) error
	// Width returns the fused vector count k.
	Width() int
	// Name identifies the kernel variant, e.g. "bcsr2x2/16/wide4".
	Name() string
}

// NewWide compiles a width-k multi-RHS kernel for an encoded matrix. Every
// format internal/tune can produce is supported; parallel composites are
// built with NewWideParallel instead.
func NewWide(fm matrix.Format, width int) (Wide, error) {
	if width < 1 {
		return nil, fmt.Errorf("kernel: need at least 1 vector, got %d", width)
	}
	if sym, ok := fm.(*matrix.SymCSR); ok {
		sw, err := NewSymSweep(sym, 1)
		if err != nil {
			return nil, err
		}
		return &wideSym{sw: sw, nv: width}, nil
	}
	eng, name, err := newWideEngine(fm, width)
	if err != nil {
		return nil, err
	}
	r, c := fm.Dims()
	return newWideSerial(eng, r, c, width, fmt.Sprintf("%s/wide%d", name, width)), nil
}

// wideEngine is the internal compute interface, the width-k analogue of
// engine: run operates on padded interleaved blocks of len >= rPad()*k and
// cPad()*k, with x's pad region zero on entry and y's ignored on exit.
type wideEngine interface {
	run(ypad, xpad []float64)
	rPad() int
	cPad() int
}

// newWideEngine builds the raw width-k engine for any serial encoding.
func newWideEngine(fm matrix.Format, nv int) (wideEngine, string, error) {
	switch m := fm.(type) {
	case *matrix.COO:
		return &wideCOO{m: m, nv: nv}, "coo", nil
	case *matrix.CSR16:
		return &wideCSR[uint16]{m: m, nv: nv}, "csr16", nil
	case *matrix.CSR32:
		return &wideCSR[uint32]{m: m, nv: nv}, "csr32", nil
	case *matrix.BCSR[uint16]:
		return newWideBCSR(m, nv), fmt.Sprintf("bcsr%dx%d/16", m.Shape.R, m.Shape.C), nil
	case *matrix.BCSR[uint32]:
		return newWideBCSR(m, nv), fmt.Sprintf("bcsr%dx%d/32", m.Shape.R, m.Shape.C), nil
	case *matrix.BCOO[uint16]:
		return newWideBCOO(m, nv), fmt.Sprintf("bcoo%dx%d/16", m.Shape.R, m.Shape.C), nil
	case *matrix.BCOO[uint32]:
		return newWideBCOO(m, nv), fmt.Sprintf("bcoo%dx%d/32", m.Shape.R, m.Shape.C), nil
	case *matrix.CacheBlocked:
		eng, err := newWideComposite(m, nv)
		return eng, fmt.Sprintf("cacheblocked[%d]", len(m.Blocks)), err
	default:
		return nil, "", fmt.Errorf("kernel: no wide kernel for format %T", fm)
	}
}

// wideSerial wraps a wideEngine into a Wide, managing pad scratch. Unlike
// the scalar serial wrapper, pad buffers come from a pool so concurrent
// sweeps (a serving layer's overlapping batches) never share scratch.
type wideSerial struct {
	eng        wideEngine
	rows, cols int
	nv         int
	name       string
	ylen, xlen int // padded block lengths; == logical when no padding
	pads       sync.Pool
}

type wideScratch struct{ y, x []float64 }

func newWideSerial(eng wideEngine, rows, cols, nv int, name string) *wideSerial {
	return &wideSerial{
		eng: eng, rows: rows, cols: cols, nv: nv, name: name,
		ylen: eng.rPad() * nv, xlen: eng.cPad() * nv,
	}
}

func (w *wideSerial) Width() int   { return w.nv }
func (w *wideSerial) Name() string { return w.name }

// MulAddBlock implements Wide.
//
//spmv:deterministic
func (w *wideSerial) MulAddBlock(y, x []float64) error {
	if len(y) != w.rows*w.nv || len(x) != w.cols*w.nv {
		return fmt.Errorf("%w: matrix %dx%d with %d vectors: len(y)=%d len(x)=%d",
			matrix.ErrShape, w.rows, w.cols, w.nv, len(y), len(x))
	}
	if w.ylen == len(y) && w.xlen == len(x) {
		w.eng.run(y, x)
		return nil
	}
	sc, _ := w.pads.Get().(*wideScratch)
	if sc == nil {
		sc = &wideScratch{}
	}
	yp := y
	if w.ylen > len(y) {
		if cap(sc.y) < w.ylen {
			sc.y = make([]float64, w.ylen)
		}
		yp = sc.y[:w.ylen]
		copy(yp, y)
	}
	xp := x
	if w.xlen > len(x) {
		if cap(sc.x) < w.xlen {
			sc.x = make([]float64, w.xlen)
		}
		xp = sc.x[:w.xlen]
		n := copy(xp, x)
		clear(xp[n:]) // pooled scratch: the pad region must be zero each call
	}
	w.eng.run(yp, xp)
	if w.ylen > len(y) {
		copy(y, yp[:len(y)])
	}
	w.pads.Put(sc)
	return nil
}

// wideCSR fuses k vectors over a CSR stream. Each lane sums its row in
// column order into a fresh accumulator, then adds it into y once. The
// common widths 1, 2, 4 and 8 are unrolled (mirroring the register-block
// code generation); other widths take a generic per-lane loop with the
// same per-lane operation order, so bits never depend on which body ran.
// The float64 conversions round every product before it is summed, so no
// architecture may fuse a multiply-add and move the bits.
type wideCSR[I matrix.Index] struct {
	m  *matrix.CSR[I]
	nv int
}

func (e *wideCSR[I]) rPad() int { return e.m.R }
func (e *wideCSR[I]) cPad() int { return e.m.C }

func (e *wideCSR[I]) run(y, x []float64) {
	m := e.m
	switch e.nv {
	case 1:
		k := m.RowPtr[0]
		for i := 0; i < m.R; i++ {
			end := m.RowPtr[i+1]
			sum := 0.0
			for ; k < end; k++ {
				sum += float64(m.Val[k] * x[m.Col[k]])
			}
			y[i] += sum
		}
	case 2:
		k := m.RowPtr[0]
		for i := 0; i < m.R; i++ {
			end := m.RowPtr[i+1]
			s0, s1 := 0.0, 0.0
			for ; k < end; k++ {
				v := m.Val[k]
				c := int(m.Col[k]) * 2
				s0 += float64(v * x[c])
				s1 += float64(v * x[c+1])
			}
			y[i*2] += s0
			y[i*2+1] += s1
		}
	case 4:
		k := m.RowPtr[0]
		for i := 0; i < m.R; i++ {
			end := m.RowPtr[i+1]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for ; k < end; k++ {
				v := m.Val[k]
				c := int(m.Col[k]) * 4
				s0 += float64(v * x[c])
				s1 += float64(v * x[c+1])
				s2 += float64(v * x[c+2])
				s3 += float64(v * x[c+3])
			}
			b := i * 4
			y[b] += s0
			y[b+1] += s1
			y[b+2] += s2
			y[b+3] += s3
		}
	case 8:
		k := m.RowPtr[0]
		for i := 0; i < m.R; i++ {
			end := m.RowPtr[i+1]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			s4, s5, s6, s7 := 0.0, 0.0, 0.0, 0.0
			for ; k < end; k++ {
				v := m.Val[k]
				c := int(m.Col[k]) * 8
				s0 += float64(v * x[c])
				s1 += float64(v * x[c+1])
				s2 += float64(v * x[c+2])
				s3 += float64(v * x[c+3])
				s4 += float64(v * x[c+4])
				s5 += float64(v * x[c+5])
				s6 += float64(v * x[c+6])
				s7 += float64(v * x[c+7])
			}
			b := i * 8
			y[b] += s0
			y[b+1] += s1
			y[b+2] += s2
			y[b+3] += s3
			y[b+4] += s4
			y[b+5] += s5
			y[b+6] += s6
			y[b+7] += s7
		}
	default:
		nv := e.nv
		sums := make([]float64, nv)
		k := m.RowPtr[0]
		for i := 0; i < m.R; i++ {
			end := m.RowPtr[i+1]
			clear(sums)
			for ; k < end; k++ {
				val := m.Val[k]
				c := int(m.Col[k]) * nv
				for v := 0; v < nv; v++ {
					sums[v] += float64(val * x[c+v])
				}
			}
			base := i * nv
			for v := 0; v < nv; v++ {
				y[base+v] += sums[v]
			}
		}
	}
}

// wideBCSR fuses k vectors over register-blocked storage: each tile is
// streamed once and applied to all k lanes. One generic body covers every
// tile shape (the scalar kernels' unrolled bodies stand in for generated
// SIMD; the wide variant's win is bandwidth, not instruction scheduling).
type wideBCSR[I matrix.Index] struct {
	m  *matrix.BCSR[I]
	nv int
	rp int
	cp int
}

func newWideBCSR[I matrix.Index](m *matrix.BCSR[I], nv int) *wideBCSR[I] {
	return &wideBCSR[I]{
		m: m, nv: nv,
		rp: m.BlockRows * m.Shape.R,
		cp: (m.C + m.Shape.C - 1) / m.Shape.C * m.Shape.C,
	}
}

func (e *wideBCSR[I]) rPad() int { return e.rp }
func (e *wideBCSR[I]) cPad() int { return e.cp }

func (e *wideBCSR[I]) run(y, x []float64) {
	m, nv := e.m, e.nv
	R, C := m.Shape.R, m.Shape.C
	acc := make([]float64, R*nv)
	for br := 0; br < m.BlockRows; br++ {
		for i := range acc {
			acc[i] = 0
		}
		for t := m.RowPtr[br]; t < m.RowPtr[br+1]; t++ {
			c0 := int(m.BCol[t]) * C * nv
			v0 := int(t) * R * C
			for r := 0; r < R; r++ {
				ab := r * nv
				for c := 0; c < C; c++ {
					val := m.Val[v0+r*C+c]
					xb := c0 + c*nv
					for v := 0; v < nv; v++ {
						acc[ab+v] += val * x[xb+v]
					}
				}
			}
		}
		yb := br * R * nv
		for i := range acc {
			y[yb+i] += acc[i]
		}
	}
}

// wideBCOO fuses k vectors over block-coordinate storage: one flat pass
// over the tiles, accumulating each tile row locally before the add.
type wideBCOO[I matrix.Index] struct {
	m  *matrix.BCOO[I]
	nv int
	rp int
	cp int
}

func newWideBCOO[I matrix.Index](m *matrix.BCOO[I], nv int) *wideBCOO[I] {
	return &wideBCOO[I]{
		m: m, nv: nv,
		rp: (m.R + m.Shape.R - 1) / m.Shape.R * m.Shape.R,
		cp: (m.C + m.Shape.C - 1) / m.Shape.C * m.Shape.C,
	}
}

func (e *wideBCOO[I]) rPad() int { return e.rp }
func (e *wideBCOO[I]) cPad() int { return e.cp }

func (e *wideBCOO[I]) run(y, x []float64) {
	m, nv := e.m, e.nv
	R, C := m.Shape.R, m.Shape.C
	acc := make([]float64, nv)
	for t := range m.BCol {
		r0 := int(m.BRow[t]) * R * nv
		c0 := int(m.BCol[t]) * C * nv
		v0 := t * R * C
		for r := 0; r < R; r++ {
			for v := range acc {
				acc[v] = 0
			}
			for c := 0; c < C; c++ {
				val := m.Val[v0+r*C+c]
				xb := c0 + c*nv
				for v := 0; v < nv; v++ {
					acc[v] += val * x[xb+v]
				}
			}
			yb := r0 + r*nv
			for v := 0; v < nv; v++ {
				y[yb+v] += acc[v]
			}
		}
	}
}

// wideCOO is the width-k triplet engine (encoding of last resort inside
// cache blocks, and the reference for the differential tests).
type wideCOO struct {
	m  *matrix.COO
	nv int
}

func (e *wideCOO) rPad() int { return e.m.R }
func (e *wideCOO) cPad() int { return e.m.C }

func (e *wideCOO) run(y, x []float64) {
	m, nv := e.m, e.nv
	for k := range m.Val {
		val := m.Val[k]
		yb := int(m.RowIdx[k]) * nv
		xb := int(m.ColIdx[k]) * nv
		for v := 0; v < nv; v++ {
			y[yb+v] += val * x[xb+v]
		}
	}
}

// wideComposite runs a cache-blocked matrix width-k: each block's engine
// dispatches at its (RowOff, ColOff) origin within the shared padded
// blocks, in the same block order as the scalar composite engine.
type wideComposite struct {
	blocks []wideCompBlock
	rp, cp int
	nv     int
}

type wideCompBlock struct {
	rowOff, colOff int
	eng            wideEngine
}

func newWideComposite(m *matrix.CacheBlocked, nv int) (*wideComposite, error) {
	ce := &wideComposite{rp: m.R, cp: m.C, nv: nv}
	for i, b := range m.Blocks {
		eng, _, err := newWideEngine(b.Enc, nv)
		if err != nil {
			return nil, fmt.Errorf("kernel: cache block %d: %w", i, err)
		}
		ce.blocks = append(ce.blocks, wideCompBlock{b.RowOff, b.ColOff, eng})
		if n := b.RowOff + eng.rPad(); n > ce.rp {
			ce.rp = n
		}
		if n := b.ColOff + eng.cPad(); n > ce.cp {
			ce.cp = n
		}
	}
	return ce, nil
}

func (e *wideComposite) rPad() int { return e.rp }
func (e *wideComposite) cPad() int { return e.cp }

func (e *wideComposite) run(y, x []float64) {
	for _, b := range e.blocks {
		b.eng.run(y[b.rowOff*e.nv:], x[b.colOff*e.nv:])
	}
}

// wideSym adapts the parallel symmetric sweep (which already fuses any
// width with canonical, width-invariant bits) to the Wide interface.
type wideSym struct {
	sw *SymSweep
	nv int
}

func (w *wideSym) MulAddBlock(y, x []float64) error { return w.sw.MulAddWidth(y, x, w.nv) }
func (w *wideSym) Width() int                       { return w.nv }
func (w *wideSym) Name() string                     { return fmt.Sprintf("symcsr/wide%d", w.nv) }

// WideParallel is the width-k view of a row-partitioned parallel kernel:
// each thread part's encoding gets its own Wide kernel over the part's
// disjoint destination rows, so the parts of one fused sweep run
// concurrently with no synchronization — and, rows being disjoint, with
// bits identical to sequential execution.
type WideParallel struct {
	rows, cols int
	nv         int
	parts      []widePart
	name       string
}

type widePart struct {
	lo, hi int
	k      Wide
}

// NewWideParallel builds the width-k view of a parallel kernel from the
// parts it was assembled from.
func NewWideParallel(p *Parallel, width int) (*WideParallel, error) {
	if width < 1 {
		return nil, fmt.Errorf("kernel: need at least 1 vector, got %d", width)
	}
	src := p.Parts()
	if len(src) == 0 {
		return nil, fmt.Errorf("kernel: parallel kernel retains no parts")
	}
	wp := &WideParallel{
		rows: p.rows, cols: p.cols, nv: width,
		name: fmt.Sprintf("%s/wide%d", p.Name(), width),
	}
	for i, pt := range src {
		k, err := NewWide(pt.Enc, width)
		if err != nil {
			return nil, fmt.Errorf("kernel: part %d: %w", i, err)
		}
		wp.parts = append(wp.parts, widePart{lo: pt.Range.Lo, hi: pt.Range.Hi, k: k})
	}
	return wp, nil
}

// Width returns the fused vector count k.
func (p *WideParallel) Width() int { return p.nv }

// Name identifies the kernel variant.
func (p *WideParallel) Name() string { return p.name }

// MulAddBlock computes Y ← Y + A·X over interleaved width-k blocks,
// running the parts on their own goroutines.
//
//spmv:deterministic
func (p *WideParallel) MulAddBlock(y, x []float64) error {
	return p.MulAddBlockExec(y, x, nil)
}

// MulAddBlockExec is MulAddBlock with the per-part tasks scheduled through
// exec (nil runs them on the kernel's own goroutines). Scheduling never
// changes result bits: parts own disjoint destination rows.
func (p *WideParallel) MulAddBlockExec(y, x []float64, exec Exec) error {
	if len(y) != p.rows*p.nv || len(x) != p.cols*p.nv {
		return fmt.Errorf("%w: matrix %dx%d with %d vectors: len(y)=%d len(x)=%d",
			matrix.ErrShape, p.rows, p.cols, p.nv, len(y), len(x))
	}
	var mu sync.Mutex
	var firstErr error
	tasks := make([]func(), len(p.parts))
	for i := range p.parts {
		pt := p.parts[i]
		tasks[i] = func() {
			if err := pt.k.MulAddBlock(y[pt.lo*p.nv:pt.hi*p.nv], x); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}
	}
	if exec == nil {
		var wg sync.WaitGroup
		wg.Add(len(tasks))
		for _, t := range tasks {
			go func(t func()) {
				defer wg.Done()
				t()
			}(t)
		}
		wg.Wait()
	} else {
		exec(tasks)
	}
	return firstErr
}

// Interleave packs k equal-length column vectors into the row-major block
// layout the wide kernels consume: out[j*k+v] is element j of vector v.
func Interleave(vectors [][]float64) ([]float64, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("kernel: no vectors")
	}
	n := len(vectors[0])
	for i, v := range vectors {
		if len(v) != n {
			return nil, fmt.Errorf("kernel: vector %d has length %d, want %d", i, len(v), n)
		}
	}
	nv := len(vectors)
	out := make([]float64, n*nv)
	for j := 0; j < n; j++ {
		for v := 0; v < nv; v++ {
			out[j*nv+v] = vectors[v][j]
		}
	}
	return out, nil
}

// Deinterleave unpacks the block layout back into k column vectors.
func Deinterleave(block []float64, nv int) ([][]float64, error) {
	if nv < 1 || len(block)%nv != 0 {
		return nil, fmt.Errorf("kernel: block length %d not divisible by %d vectors", len(block), nv)
	}
	n := len(block) / nv
	out := make([][]float64, nv)
	for v := range out {
		out[v] = make([]float64, n)
		for j := 0; j < n; j++ {
			out[v][j] = block[j*nv+v]
		}
	}
	return out, nil
}
