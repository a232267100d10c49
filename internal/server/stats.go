package server

import "sync/atomic"

// MaxTrackedWidth bounds the fused-width histogram; sweeps wider than this
// are counted in the last bucket.
const MaxTrackedWidth = 64

// stats is the server's lock-free counter block. All fields are updated
// with atomics on the hot path; Snapshot copies them into the exported
// Stats value.
type stats struct {
	requests        atomic.Uint64 // Mul requests admitted
	sweeps          atomic.Uint64 // kernel sweeps executed (any width)
	fusedSweeps     atomic.Uint64 // sweeps with width >= 2
	fusedRequests   atomic.Uint64 // requests served by fused sweeps
	singleFallbacks atomic.Uint64 // width-1 sweeps (lone requests) on the fused path
	widthHist       [MaxTrackedWidth + 1]atomic.Uint64

	registered  atomic.Uint64 // matrices in the registry
	compiles    atomic.Uint64 // tuner+compile runs (operator-cache misses)
	compileHits atomic.Uint64 // operator-cache hits

	retuneEvals      atomic.Uint64 // drifted entries shadow-benchmarked
	retunePromotions atomic.Uint64 // candidates promoted to serving
	retuneRejections atomic.Uint64 // candidates rejected by the benchmark

	solveSessions atomic.Uint64 // solver sessions created
	solveIters    atomic.Uint64 // solver iterations executed

	patches       atomic.Uint64 // PATCH batches applied
	deltasApplied atomic.Uint64 // individual delta ops applied
	recompactions atomic.Uint64 // overlays folded into fresh bases
	symDemotions  atomic.Uint64 // symmetric entries demoted to general at recompaction
	deletes       atomic.Uint64 // matrices torn down by DELETE

	matrixBytes  atomic.Int64 // modeled matrix-stream DRAM bytes moved
	sourceBytes  atomic.Int64 // modeled source-vector DRAM bytes moved
	destBytes    atomic.Int64 // modeled destination-vector DRAM bytes moved
	savedBytes   atomic.Int64 // matrix-stream bytes avoided by fusion
	overlayBytes atomic.Int64 // modeled overlay-stream DRAM bytes moved
}

// recordSweep accounts one executed sweep of the given fused width with
// the matrix's per-sweep modeled traffic (single-RHS basis).
func (s *stats) recordSweep(width int, matrixB, sourceB, destB int64) {
	s.sweeps.Add(1)
	w := width
	if w > MaxTrackedWidth {
		w = MaxTrackedWidth
	}
	if w < 1 {
		w = 1
	}
	s.widthHist[w].Add(1)
	if width >= 2 {
		s.fusedSweeps.Add(1)
		s.fusedRequests.Add(uint64(width))
		s.savedBytes.Add(int64(width-1) * matrixB)
	} else {
		s.singleFallbacks.Add(1)
	}
	s.matrixBytes.Add(matrixB)
	s.sourceBytes.Add(int64(width) * sourceB)
	s.destBytes.Add(int64(width) * destB)
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Requests        uint64 // Mul requests admitted
	Sweeps          uint64 // kernel sweeps executed
	FusedSweeps     uint64 // sweeps that coalesced >= 2 requests
	FusedRequests   uint64 // requests served by fused sweeps
	SingleFallbacks uint64 // requests served alone, as width-1 sweeps on the fused path
	// FusedWidthHist[k] counts sweeps that fused exactly k requests
	// (index 0 unused; the last bucket also holds anything wider).
	FusedWidthHist [MaxTrackedWidth + 1]uint64

	Registered  uint64 // matrices currently registered
	Compiles    uint64 // tuner+compile runs (operator-cache misses)
	CompileHits uint64 // operator-cache hits

	// Online re-tuning (see retuner.go): drifted entries evaluated, and
	// how their shadow benchmarks resolved.
	RetuneEvals      uint64
	RetunePromotions uint64
	RetuneRejections uint64

	// Solver sessions (see solve.go): sessions created and iterations
	// executed server-side. Each iteration is one width-1 fused sweep, so
	// solver work also shows up in Sweeps and the modeled byte counters.
	SolveSessions uint64
	SolveIters    uint64

	// Mutable-matrix lifecycle (see mutate.go): PATCH batches and the
	// individual delta ops they carried, background recompactions (and the
	// symmetric→general demotions they forced), and DELETE teardowns.
	Patches       uint64
	DeltasApplied uint64
	Recompactions uint64
	SymDemotions  uint64
	Deletes       uint64

	// Modeled DRAM traffic (internal/traffic) actually moved by the
	// executed sweeps, and the matrix-stream bytes fusion avoided versus
	// running every request as its own sweep. OverlayBytes is the extra
	// overlay-stream traffic patched matrices paid on top of MatrixBytes.
	MatrixBytes  int64
	SourceBytes  int64
	DestBytes    int64
	SavedBytes   int64
	OverlayBytes int64
}

// TotalBytes returns the modeled DRAM bytes moved.
func (s Stats) TotalBytes() int64 { return s.MatrixBytes + s.SourceBytes + s.DestBytes }

// MeanFusedWidth returns the average number of requests per sweep.
func (s Stats) MeanFusedWidth() float64 {
	if s.Sweeps == 0 {
		return 0
	}
	return float64(s.Requests) / float64(s.Sweeps)
}

func (s *stats) snapshot() Stats {
	out := Stats{
		Requests:         s.requests.Load(),
		Sweeps:           s.sweeps.Load(),
		FusedSweeps:      s.fusedSweeps.Load(),
		FusedRequests:    s.fusedRequests.Load(),
		SingleFallbacks:  s.singleFallbacks.Load(),
		Registered:       s.registered.Load(),
		Compiles:         s.compiles.Load(),
		CompileHits:      s.compileHits.Load(),
		RetuneEvals:      s.retuneEvals.Load(),
		RetunePromotions: s.retunePromotions.Load(),
		RetuneRejections: s.retuneRejections.Load(),
		SolveSessions:    s.solveSessions.Load(),
		SolveIters:       s.solveIters.Load(),
		Patches:          s.patches.Load(),
		DeltasApplied:    s.deltasApplied.Load(),
		Recompactions:    s.recompactions.Load(),
		SymDemotions:     s.symDemotions.Load(),
		Deletes:          s.deletes.Load(),
		MatrixBytes:      s.matrixBytes.Load(),
		SourceBytes:      s.sourceBytes.Load(),
		DestBytes:        s.destBytes.Load(),
		SavedBytes:       s.savedBytes.Load(),
		OverlayBytes:     s.overlayBytes.Load(),
	}
	for i := range s.widthHist {
		out.FusedWidthHist[i] = s.widthHist[i].Load()
	}
	return out
}
