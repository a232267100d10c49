// Package server is the SpMV serving subsystem: a matrix registry that
// compiles one operator per matrix and re-tunes it online (§4.2), an
// adaptive batcher that coalesces concurrent single-vector requests into
// fused multi-RHS sweeps (§2.1's multiple-vectors optimization — the
// matrix streams once for k requests), and a worker pool that runs each
// sweep's nonzero-balanced row parts (§4.3) concurrently. *Server is the
// in-process API; Handler serves the same operations over HTTP behind
// cmd/spmv-serve.
package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	spmv "repro"
	"repro/internal/matrix/delta"
	"repro/internal/obs"
)

// serving is one immutable serving configuration for an entry: the
// operator answering requests, how its fused sweeps execute, and the
// modeled traffic they move. Entries swap configurations atomically
// (copy-on-write): a sweep loads the pointer once and runs entirely on
// that snapshot, so in-flight sweeps drain on the old operator while new
// arrivals see the promoted one — no locks on the hot path, no torn
// reads of operator/overlay pairs. Fused sweeps always stream op's own
// wide views (Operator.WideMulti).
type serving struct {
	op  *spmv.Operator
	sym bool // op is the symmetric operator
	// width is the fused-RHS width this operator was tuned for; the
	// re-tuner measures workload drift against it.
	width int
	// gen counts promotions: 0 is the registration-time tune.
	gen int
	// Modeled single-RHS sweep traffic (internal/traffic) of the serving
	// path, the basis for the server's bytes-moved counters.
	matrixBytes, sourceBytes, destBytes int64
	// ov is the delta overlay sweeps apply after the base-operator pass
	// (nil when the entry has no pending deltas), and ovBytes its modeled
	// per-sweep stream (traffic.OverlaySweepBytes) — the extra bandwidth
	// every sweep pays until recompaction folds the deltas into the base.
	// The overlay lives inside the snapshot for the same reason the
	// operator does: a sweep loads e.cur once and must see a coherent
	// (operator, overlay) pair, never a new overlay against an old base or
	// vice versa. Every swap of e.cur — patch, re-tune promotion,
	// recompaction — happens under tuneMu, which is what keeps the pair
	// coherent across writers.
	ov      *delta.Overlay
	ovBytes int64
	// roof joins each executed sweep's measured wall time with its modeled
	// bytes. Hanging the accumulator on the snapshot makes attribution
	// per matrix, per kernel, AND per re-tune generation for free: a
	// promotion installs a fresh accumulator, so its achieved GB/s is
	// never diluted by the demoted operator's history.
	roof *obs.Roofline
}

// summary returns the snapshot's modeled per-sweep fused-path traffic.
func (sv *serving) summary() spmv.TrafficSummary {
	return spmv.TrafficSummary{
		MatrixBytes: sv.matrixBytes,
		SourceBytes: sv.sourceBytes,
		DestBytes:   sv.destBytes,
	}
}

// Entry is one registered matrix with its serving snapshot and precomputed
// serving metadata. The snapshot is the sole owner of the entry's compiled
// operator: a promotion or recompaction replaces it, and the operator it
// displaces is garbage once in-flight sweeps finish.
type Entry struct {
	ID   string
	Name string // human label (suite name, "upload", ...)

	// m is the base matrix; recompaction replaces it under tuneMu, which
	// every reader holds, along with nnz, which is atomic because listings
	// read it lock-free.
	m          *spmv.Matrix
	rows, cols int
	nnz        atomic.Int64

	// cur is the entry's serving snapshot; nil until the registration-time
	// tune finishes. See serving.
	cur atomic.Pointer[serving]

	// work observes the entry's request mix (fused-width histogram and a
	// ring of recent sweep shapes) — the drift signal and shadow-benchmark
	// sample the re-tuner consumes.
	work workload

	// tuneMu serializes every writer of the entry's serving state: re-tune
	// evaluations, delta patches, and recompaction promotions all load
	// e.cur, build a successor, and Store it under this mutex — so no swap
	// ever clobbers another writer's. events is the bounded decision log
	// behind GET /v1/matrices/{id}/tuning. lastEvalRequests paces
	// evaluations by fresh traffic; lastRejectedWidth suppresses
	// re-evaluating (and recompiling) the identical candidate while the
	// observed median hasn't moved since a rejection.
	tuneMu            sync.Mutex
	events            []TuningEvent
	lastEvalRequests  uint64
	lastRejectedWidth int

	// log accumulates the entry's COO deltas (nil until the first PATCH).
	// Guarded by tuneMu, like every other mutation of serving state; the
	// overlay snapshots it publishes into e.cur are immutable and read
	// lock-free by sweeps. Recompaction replaces it (along with m/nnz)
	// when the pending deltas fold into a fresh base, so a log's sequence
	// numbers are per-generation.
	log *delta.Log

	// recompacting is the single-flight latch for the background
	// recompactor: the patch that crosses the traffic-modeled threshold
	// wins the CAS and spawns the fold+retune, later patches see it set
	// and leave the in-flight run alone.
	recompacting atomic.Bool

	// bufs recycles interleaved x/y blocks between fused sweeps so the
	// steady-state hot path allocates only the result vectors it hands to
	// callers.
	bufs sync.Pool // *blockBuf

	// symChecked/symSeq/symIs cache the numeric-symmetry answer for
	// solver admission (see Entry.isSymmetricMatrix): CG requires the
	// matrix to be symmetric whatever storage family serves it, and the
	// exact transpose comparison is worth paying once per mutation epoch,
	// not per session. The cache is keyed by the delta log's seq (and reset
	// by recompaction), because a patch can create or break symmetry.
	// Guarded by tuneMu.
	symChecked bool
	symSeq     int
	symIs      bool
}

// blockBuf is one fused sweep's interleaved scratch space.
type blockBuf struct {
	x, y []float64
}

// getBuf returns a scratch buffer with capacity for a width-w sweep.
func (e *Entry) getBuf(w int) *blockBuf {
	b, _ := e.bufs.Get().(*blockBuf)
	if b == nil {
		b = &blockBuf{}
	}
	if need := e.cols * w; cap(b.x) < need {
		b.x = make([]float64, need)
	}
	if need := e.rows * w; cap(b.y) < need {
		b.y = make([]float64, need)
	}
	return b
}

func (e *Entry) putBuf(b *blockBuf) { e.bufs.Put(b) }

// Dims returns (rows, cols).
func (e *Entry) Dims() (rows, cols int) { return e.rows, e.cols }

// NNZ returns the matrix's logical nonzero count.
func (e *Entry) NNZ() int64 { return e.nnz.Load() }

// Operator returns the operator serving the entry, or nil while its
// registration-time compile is still running.
func (e *Entry) Operator() *spmv.Operator {
	if sv := e.cur.Load(); sv != nil {
		return sv.op
	}
	return nil
}

// MaxDeclaredDim caps a registered matrix's declared rows and columns
// (128Mi): large enough for any full-scale suite twin or shard band, small
// enough that per-dimension allocations (row pointers, pad buffers,
// traffic-model stamps) stay bounded against hostile registrations.
const MaxDeclaredDim = 1 << 27

// Registry holds the served matrices. All methods are safe for concurrent
// use.
type Registry struct {
	mu   sync.RWMutex
	byID map[string]*Entry
	seq  int
	st   *stats
}

// NewRegistry returns an empty registry. st may be nil.
func NewRegistry(st *stats) *Registry {
	return &Registry{byID: make(map[string]*Entry), st: st}
}

// Register ingests a matrix under the given id (one is generated when
// empty) and returns its entry. Registering an existing id is an error:
// entries are immutable once served, matching the immutability of compiled
// operators.
func (r *Registry) Register(id, name string, m *spmv.Matrix) (*Entry, error) {
	if m == nil {
		return nil, fmt.Errorf("server: nil matrix")
	}
	rows, cols := m.Dims()
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("server: empty matrix %dx%d", rows, cols)
	}
	// A declared shape vastly larger than the stored entries is hostile or
	// mistaken: compiling it would allocate row pointers (and traffic-model
	// scratch) for billions of empty rows no request could ever use. Rows
	// get a 64x allowance over the stored entries — keeping every
	// legitimately empty-row-heavy shape (webbase, and the row bands a
	// shard coordinator registers on members, whose nnz shrinks with the
	// band while cols stays full) — and both dimensions get an absolute
	// cap, so the allocation a registration can force stays a bounded
	// multiple of what its payload paid for.
	if rows > MaxDeclaredDim || cols > MaxDeclaredDim {
		return nil, fmt.Errorf("server: dimensions %dx%d exceed the %d limit", rows, cols, MaxDeclaredDim)
	}
	if int64(rows) > 64*(m.NNZ()+4096) {
		return nil, fmt.Errorf("server: %d rows unreasonably exceed %d stored entries", rows, m.NNZ())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == "" {
		r.seq++
		id = fmt.Sprintf("m%d", r.seq)
	}
	if _, ok := r.byID[id]; ok {
		return nil, fmt.Errorf("%w: matrix %q", ErrAlreadyRegistered, id)
	}
	e := &Entry{ID: id, Name: name, m: m, rows: rows, cols: cols}
	e.nnz.Store(m.NNZ())
	r.byID[id] = e
	if r.st != nil {
		r.st.registered.Add(1)
	}
	return e, nil
}

// remove deletes an entry, freeing its id, and reports whether it was
// present. It backs out failed registrations (so the id is not burned by
// a rejected request) and implements DELETE teardown — the caller is
// responsible for draining the entry's solver sessions first; sweeps
// already in flight finish safely on the snapshots they loaded.
func (r *Registry) remove(id string) bool {
	r.mu.Lock()
	_, ok := r.byID[id]
	if ok {
		delete(r.byID, id)
		if r.st != nil {
			r.st.registered.Add(^uint64(0))
		}
	}
	r.mu.Unlock()
	return ok
}

// Get returns the entry for id.
func (r *Registry) Get(id string) (*Entry, error) {
	r.mu.RLock()
	e, ok := r.byID[id]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownMatrix, id)
	}
	return e, nil
}

// List returns all entries ordered by id.
func (r *Registry) List() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.byID))
	for _, e := range r.byID {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
