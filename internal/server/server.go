package server

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	spmv "repro"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Config sizes the serving subsystem.
//
// Serving numerics are fixed, not configured: every Mul response — lone
// or fused, served by one node or scattered over a sharded fleet, before
// or after a re-tune promotion or a recompaction — is bitwise identical
// for a given matrix and storage family. General matrices stream their
// own compiled CSR-family operator through the wide multi-RHS kernels,
// which accumulate each row strictly in column order; symmetric matrices
// run the symmetric kernel's canonical segmented reduction
// (kernel.SymSweep). Symmetry changes the summation order once, at
// registration, never per request.
type Config struct {
	// Threads is the parallel width operators compile with, and so the
	// number of tasks every fused sweep fans out over the worker pool:
	// a general operator's nonzero-balanced row parts, or the symmetric
	// kernel's segment tasks. It is also the width of solver sessions'
	// BLAS reductions. <= 0 means GOMAXPROCS.
	Threads int
	// Workers is the sweep pool size. <= 0 means GOMAXPROCS.
	Workers int
	// MaxConcurrentSweeps bounds sweeps executing at once. <= 0 means
	// Workers.
	MaxConcurrentSweeps int
	// MaxBatch is the widest fused sweep (k requests coalesced). <= 1
	// disables batching.
	MaxBatch int
	// BatchWindow is how long a batch leader lingers for followers.
	BatchWindow time.Duration
	// Adaptive lets lone requests skip the linger when traffic is sparse
	// (see batcher). Dense traffic still coalesces.
	Adaptive bool
	// AutoSymmetric tries upper-triangle (SymCSR) storage for every
	// square registered matrix: when the symmetric compile succeeds
	// (the matrix is numerically symmetric) and its footprint beats the
	// CSR32 that general serving streams, the matrix is served by the
	// parallel symmetric operator — half the matrix stream per sweep. A
	// per-request "symmetric" field overrides the auto-detection either
	// way.
	AutoSymmetric bool

	// MaxBodyBytes caps HTTP request bodies (registrations and mul
	// payloads); oversized requests get 413. <= 0 means the 256 MiB
	// default. The cap also bounds coordinator-to-member shard band
	// uploads (MatrixMarket costs ~75 bytes per nonzero on the wire), so
	// members of a fleet sharding very large matrices need it raised in
	// step with their band sizes.
	MaxBodyBytes int64

	// RetuneInterval enables workload-aware online re-tuning: a background
	// scanner wakes at this interval, measures each matrix's observed
	// request mix against the width its serving operator was tuned for,
	// and — past the drift threshold — re-runs the tuner with workload-
	// derived options in a worker off the hot path, promoting the
	// candidate only when it wins a modeled shadow benchmark on captured
	// request shapes (see retuner.go). <= 0 disables the scanner;
	// RetuneOnce still evaluates on demand.
	RetuneInterval time.Duration

	// RetuneDrift is the width-drift threshold in (0, 1] that triggers a
	// re-tune evaluation: 1 - min/max of tuned vs observed median width,
	// so 0.5 fires on a 2× shift. <= 0 means the 0.5 default.
	RetuneDrift float64

	// RetuneMinRequests is how many fresh requests an entry must serve
	// between re-tune evaluations — both the drift signal's sample floor
	// and the pacing that keeps rejected candidates from being recompiled
	// every scan. <= 0 means the default of 64.
	RetuneMinRequests int

	// RecompactThreshold triggers background recompaction of a patched
	// matrix once its delta overlay's modeled per-sweep stream
	// (traffic.OverlaySweepBytes) reaches this fraction of the base
	// operator's matrix stream: past that point every sweep pays more than
	// the fraction in extra bandwidth, so folding the deltas into a fresh
	// base and re-tuning amortizes after ~1/threshold sweeps. 0 means
	// DefaultRecompactThreshold; negative disables recompaction (the
	// overlay then grows until an explicit Recompact call).
	RecompactThreshold float64

	// MaxSessions caps resident solver sessions (running or finished but
	// not yet collected). At the cap, creating a session first evicts the
	// oldest finished one; when every resident session is still running
	// the creation is rejected with ErrTooManySessions (429). <= 0 means
	// DefaultMaxSessions.
	MaxSessions int

	// ObsSample turns on the observability layer and sets its trace
	// sampling: 1 in ObsSample requests gets a full span trace (queue →
	// interleave → execute → gather; per-iteration spans for solver
	// sessions) into the trace ring behind GET /v1/traces. Latency
	// histograms and roofline attribution record every request while the
	// layer is on — they are a few atomic adds each. 0 disables the whole
	// layer: the hot path then takes no timestamps at all (the
	// benchsmoke overhead comparison's baseline). DefaultConfig uses
	// DefaultObsSample.
	ObsSample int

	// ObsRing is the trace ring capacity (most recent sampled traces
	// kept). <= 0 means DefaultObsRing.
	ObsRing int

	// RooflineGBs is the sustained DRAM bandwidth reference (GB/s) the
	// roofline attribution divides achieved bandwidth by. <= 0 means the
	// paper's AMD X2 sustained socket bandwidth (Table 4: ~6.6 GB/s).
	RooflineGBs float64

	// Sched configures SLO-aware multi-tenant admission and scheduling
	// (see internal/sched): per-tenant token buckets denominated in
	// modeled bytes/s gate admission with 429 + Retry-After, and the
	// priority gate orders sweep execution by SLO class with
	// shortest-job-first and an aging escalator. The zero value disables
	// the whole layer — requests run FIFO and unmetered, exactly as
	// before the layer existed.
	Sched sched.Config

	// Logger receives the server's structured logs (request access lines,
	// re-tune decisions, solver session lifecycle). nil discards.
	Logger *slog.Logger
}

// DefaultRetuneDrift and DefaultRetuneMinRequests back the zero values of
// the re-tuning knobs.
const (
	DefaultRetuneDrift       = 0.5
	DefaultRetuneMinRequests = 64
)

// DefaultRecompactThreshold backs Config.RecompactThreshold's zero value:
// recompact once the overlay stream costs every sweep 10% extra bandwidth
// over the base matrix stream.
const DefaultRecompactThreshold = 0.10

// DefaultMaxBodyBytes is the request-body cap applied when
// Config.MaxBodyBytes is unset: 256 MiB, sized to admit any single-node
// upload of the paper's full-scale suite twins (~3M nonzeros ≈ 225 MB as
// MatrixMarket) while still bounding a hostile request's memory.
const DefaultMaxBodyBytes = 256 << 20

// DefaultConfig serves with GOMAXPROCS workers, up to 8-wide fusion, a
// 200µs linger with adaptive fallback, and symmetric storage
// auto-detection.
func DefaultConfig() Config {
	return Config{
		MaxBatch:      8,
		BatchWindow:   200 * time.Microsecond,
		Adaptive:      true,
		AutoSymmetric: true,
		ObsSample:     DefaultObsSample,
	}
}

// Server is the SpMV serving subsystem: registry + batchers + sweep pool.
type Server struct {
	cfg     Config
	reg     *Registry
	pool    *Pool
	st      stats
	obs     *obsState   // nil when Config.ObsSample == 0
	sched   *schedState // nil when Config.Sched is inactive
	log     *slog.Logger
	started time.Time

	mu       sync.Mutex
	batchers map[batcherKey]*batcher

	// cluster, when attached, makes this server the front of a sharded
	// fleet: registrations with shards >= 2 and Muls against sharded ids
	// route through it. Set once before serving (AttachCluster).
	cluster *Cluster

	// retuneStop/retuneDone bracket the background re-tune scanner's
	// lifetime (nil when RetuneInterval <= 0).
	retuneStop chan struct{}
	retuneDone chan struct{}

	// Solver sessions (see solve.go): server-resident CG / power-iteration
	// state, keyed by session id. sessWG tracks the session goroutines so
	// Close can drain them before stopping the pool.
	sessMu        sync.Mutex
	sessions      map[string]*solveSession
	sessSeq       int
	closed        bool
	sessWG        sync.WaitGroup
	sessFinishSeq atomic.Uint64
}

// New starts a server. Call Close to stop its workers.
func New(cfg Config) *Server {
	if cfg.Threads <= 0 {
		cfg.Threads = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.RetuneDrift <= 0 {
		cfg.RetuneDrift = DefaultRetuneDrift
	}
	if cfg.RetuneMinRequests <= 0 {
		cfg.RetuneMinRequests = DefaultRetuneMinRequests
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.RecompactThreshold == 0 {
		cfg.RecompactThreshold = DefaultRecompactThreshold
	}
	if cfg.RooflineGBs <= 0 {
		// The paper's reference machine: AMD X2 sustained socket bandwidth
		// (Table 4), the bound the modeled traffic is calibrated against.
		am := machine.AMDX2()
		cfg.RooflineGBs = am.MemCtrl.PerSocketGBs * am.SustainedBWFracSocket
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	// The gate owns the same slot count the pool's sweep semaphore
	// enforces, so the gate is the single queueing point: a job that
	// holds a gate slot never blocks again at the pool.
	gateSlots := cfg.MaxConcurrentSweeps
	if gateSlots <= 0 {
		gateSlots = cfg.Workers
	}
	s := &Server{
		cfg: cfg, pool: NewPool(cfg.Workers, cfg.MaxConcurrentSweeps),
		batchers: make(map[batcherKey]*batcher),
		sessions: make(map[string]*solveSession),
		obs:      newObsState(cfg),
		sched:    newSchedState(cfg.Sched, gateSlots),
		log:      logger,
		started:  time.Now(),
	}
	s.reg = NewRegistry(&s.st)
	if cfg.RetuneInterval > 0 {
		s.retuneStop = make(chan struct{})
		s.retuneDone = make(chan struct{})
		go s.retuneLoop()
	}
	return s
}

// Close stops the re-tune scanner, cancels and drains solver sessions,
// and stops the worker pool. In-flight requests must have drained.
func (s *Server) Close() {
	if s.retuneStop != nil {
		close(s.retuneStop)
		<-s.retuneDone
		s.retuneStop = nil
	}
	// Refuse new sessions, cancel the running ones, and wait for their
	// goroutines — they schedule sweeps, so the pool must outlive them.
	s.sessMu.Lock()
	s.closed = true
	for _, sess := range s.sessions {
		sess.requestCancel()
	}
	s.sessMu.Unlock()
	s.sessWG.Wait()
	s.pool.Close()
}

// Registry exposes the underlying registry (read-mostly callers: List/Get).
func (s *Server) Registry() *Registry { return s.reg }

// AttachCluster makes the server front a shard coordinator. Call it once,
// before the server starts taking requests: the HTTP layer then accepts
// sharded registrations ("shards": K) and routes Muls against sharded ids
// through the coordinator, and /v1/stats grows the cluster rollup.
func (s *Server) AttachCluster(c *Cluster) { s.cluster = c }

// Cluster returns the attached shard coordinator, or nil.
func (s *Server) Cluster() *Cluster { return s.cluster }

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats { return s.st.snapshot() }

// MatrixInfo describes one registered, tuned matrix.
type MatrixInfo struct {
	ID          string  `json:"id"`
	Name        string  `json:"name,omitempty"`
	Rows        int     `json:"rows"`
	Cols        int     `json:"cols"`
	NNZ         int64   `json:"nnz"`
	Kernel      string  `json:"kernel"`
	Symmetric   bool    `json:"symmetric,omitempty"` // served by the symmetric operator
	Footprint   int64   `json:"footprint_bytes"`
	Baseline    int64   `json:"baseline_bytes"`
	Savings     float64 `json:"savings"`
	Threads     int     `json:"threads"`
	Shards      int     `json:"shards"`             // fused-sweep parts: thread parts, or row bands if sharded
	Replicas    int     `json:"replicas,omitempty"` // > 0 only for cluster-sharded matrices
	SweepBytes  int64   `json:"sweep_bytes"`        // modeled DRAM bytes per single-RHS sweep
	MatrixBytes int64   `json:"matrix_bytes"`       // matrix-stream share of SweepBytes
	// Generation counts serving-snapshot promotions (re-tunes and
	// recompactions); mutable-matrix state describes the live overlay.
	Generation   int   `json:"generation"`
	DeltaSeq     int   `json:"delta_seq,omitempty"`     // ops the serving overlay reflects
	OverlayRows  int   `json:"overlay_rows,omitempty"`  // dirty rows sweeps overwrite
	OverlayBytes int64 `json:"overlay_bytes,omitempty"` // modeled per-sweep overlay stream
}

func (s *Server) info(e *Entry) MatrixInfo {
	sv := e.cur.Load()
	if sv == nil {
		return MatrixInfo{ID: e.ID, Name: e.Name, Rows: e.rows, Cols: e.cols, NNZ: e.nnz.Load()}
	}
	info := MatrixInfo{
		ID: e.ID, Name: e.Name, Rows: e.rows, Cols: e.cols, NNZ: e.nnz.Load(),
		Kernel: sv.op.KernelName(), Symmetric: sv.sym,
		Footprint: sv.op.FootprintBytes(),
		Baseline:  sv.op.BaselineBytes(), Savings: sv.op.Savings(),
		Threads: sv.op.Threads(), Shards: sv.op.Threads(),
		SweepBytes:  sv.matrixBytes + sv.sourceBytes + sv.destBytes,
		MatrixBytes: sv.matrixBytes,
		Generation:  sv.gen,
	}
	if sv.ov != nil {
		info.DeltaSeq = sv.ov.Seq()
		info.OverlayRows = sv.ov.DirtyRows()
		info.OverlayBytes = sv.ovBytes
	}
	return info
}

// RegisterOptions modifies one registration.
type RegisterOptions struct {
	// Symmetric selects the matrix's storage family. nil defers to
	// Config.AutoSymmetric (try symmetric, fall back to general when the
	// matrix is not symmetric or the general plan is smaller); a true
	// pointer requires symmetric storage and fails with ErrNotSymmetric
	// when the matrix is not numerically symmetric; a false pointer pins
	// general storage — the setting shard members use for row bands, so
	// a fleet's bits stay invariant to topology.
	Symmetric *bool
}

// Register ingests a matrix and compiles its default serving operator.
// The empty id asks the registry to generate one.
func (s *Server) Register(id, name string, m *spmv.Matrix) (MatrixInfo, error) {
	return s.RegisterOpts(id, name, m, RegisterOptions{})
}

// RegisterOpts is Register with per-registration options.
func (s *Server) RegisterOpts(id, name string, m *spmv.Matrix, opts RegisterOptions) (MatrixInfo, error) {
	e, err := s.reg.Register(id, name, m)
	if err != nil {
		return MatrixInfo{}, err
	}
	if err := s.prepare(e, m, opts); err != nil {
		// Back the entry out: a rejected registration (e.g. symmetric
		// required for an asymmetric matrix) must not burn the id or
		// leave a half-initialized entry in listings.
		s.reg.remove(e.ID)
		return MatrixInfo{}, err
	}
	return s.info(e), nil
}

// RegisterSuite generates a structural twin of one of the paper's Table 3
// matrices and registers it.
func (s *Server) RegisterSuite(id, suite string, scale float64, seed int64) (MatrixInfo, error) {
	m, err := spmv.GenerateSuite(suite, scale, seed)
	if err != nil {
		return MatrixInfo{}, err
	}
	return s.Register(id, suite, m)
}

// prepare compiles the entry's default operator from m, its base matrix,
// and publishes the serving snapshot. The storage family comes from
// opts.Symmetric (see RegisterOptions). General matrices compile untuned
// (spmv.NaiveOptions): plain CSR32, one part per thread, which their
// fused sweeps stream until the re-tuner promotes a workload-tuned CSR
// encoding. In auto mode the symmetric operator is kept only when its
// footprint beats that CSR32 — the same footprint-minimizing rule the
// §4.2 heuristic applies between formats, with ties going to general.
func (s *Server) prepare(e *Entry, m *spmv.Matrix, opts RegisterOptions) error {
	rows, cols := e.Dims()
	wantSym := s.cfg.AutoSymmetric
	required := false
	if opts.Symmetric != nil {
		wantSym, required = *opts.Symmetric, *opts.Symmetric
	}
	var def *spmv.Operator
	if wantSym {
		if rows != cols {
			if required {
				return fmt.Errorf("%w: matrix is %dx%d", ErrNotSymmetric, rows, cols)
			}
		} else {
			op, err := s.compile(m, true, spmv.TuneOptions{})
			switch {
			case err != nil && required:
				return fmt.Errorf("%w: %v", ErrNotSymmetric, err)
			case err != nil:
				// Not symmetric: auto mode serves it general.
			case required || op.FootprintBytes() < op.BaselineBytes():
				def = op
			}
		}
	}
	if def == nil {
		op, err := s.compile(m, false, spmv.NaiveOptions())
		if err != nil {
			return err
		}
		def = op
	}
	sv, err := newServing(def)
	if err != nil {
		return err
	}
	e.cur.Store(sv)
	return nil
}

// compile builds one operator over m at the configured thread count —
// the symmetric encoding when sym is set, otherwise the general encoding
// opts selects — and counts it in Stats.Compiles. Registration,
// recompaction and re-tune candidates all compile through it.
func (s *Server) compile(m *spmv.Matrix, sym bool, opts spmv.TuneOptions) (*spmv.Operator, error) {
	var op *spmv.Operator
	var err error
	if sym {
		op, err = spmv.CompileSymmetricParallel(m, s.cfg.Threads)
	} else {
		op, err = spmv.CompileParallel(m, opts, s.cfg.Threads, 1)
	}
	if err != nil {
		return nil, err
	}
	s.st.compiles.Add(1)
	return op, nil
}

// newServing builds a width-1, generation-0 snapshot for a freshly
// compiled default operator (registration or recompaction). Its traffic
// is what the fused sweeps actually stream — the operator's own wide
// views (WideTraffic), priced by the same model the re-tuner scores its
// candidates with.
func newServing(def *spmv.Operator) (*serving, error) {
	tr, err := def.WideTraffic(spmv.TrafficOptions{})
	if err != nil {
		return nil, err
	}
	return &serving{
		op: def, sym: def.Symmetric(), width: 1, roof: new(obs.Roofline),
		matrixBytes: tr.MatrixBytes, sourceBytes: tr.SourceBytes, destBytes: tr.DestBytes,
	}, nil
}

// Mul computes y = A·x for the registered matrix id as the default
// tenant and class with no deadline.
//
// Deprecated: use MulOpts, which carries the request's tenant, SLO
// class, and deadline. Mul remains for existing callers and is exactly
// MulOpts with zero options.
func (s *Server) Mul(id string, x []float64) ([]float64, error) {
	return s.MulOpts(id, x, MulOptions{})
}

// MulOpts computes y = A·x for the registered matrix id under the
// request options: the tenant's token bucket admits or rejects the
// request (ErrAdmissionLimited carries the retry estimate), the SLO
// class orders its sweep at the priority gate, and an expired deadline
// fails it with ErrDeadlineExceeded instead of executing. Concurrent
// same-class calls against the same matrix may be coalesced into one
// fused multi-RHS sweep; results are identical to independent execution
// (the kernels are deterministic and each request keeps its own vector
// slot).
func (s *Server) MulOpts(id string, x []float64, opts MulOptions) ([]float64, error) {
	e, err := s.reg.Get(id)
	if err != nil {
		// Cluster-sharded matrices live in the coordinator, not the local
		// registry; they go through the same admission front (tenant
		// bucket, priority gate, deadline) before the fan-out.
		if s.cluster != nil && s.cluster.Has(id) {
			return s.clusterMul(id, x, opts)
		}
		return nil, err
	}
	if len(x) != e.cols {
		return nil, fmt.Errorf("server: matrix %q is %dx%d, len(x)=%d", id, e.rows, e.cols, len(x))
	}
	sv := e.cur.Load()
	if sv == nil {
		return nil, fmt.Errorf("server: matrix %q is still compiling", id)
	}
	class, err := s.resolveClass(opts.Class)
	if err != nil {
		return nil, err
	}
	p := &pending{x: x, ch: make(chan mulResult, 1)}
	// The admission cost is the request's single-RHS modeled sweep bytes
	// (plus the overlay stream every sweep of a patched matrix pays).
	// Fusion makes the actual cost cheaper (the matrix streams once per
	// batch), so the buckets meter the demand a tenant presents, not the
	// discount coalescing happens to find.
	p.cost = sv.matrixBytes + sv.sourceBytes + sv.destBytes + sv.ovBytes
	if sc := s.sched; sc != nil {
		p.acct, err = sc.admit(opts.Tenant, class, p.cost)
		if err != nil {
			return nil, err
		}
	}
	if opts.Deadline > 0 {
		p.deadline = time.Now().Add(opts.Deadline)
	}
	s.st.requests.Add(1)
	if s.obs != nil {
		p.enq = time.Now()
		p.traced = s.obs.sampler.Sample()
	}
	y, err := s.batcherFor(e, class).mul(p)
	if err == nil {
		if sc := s.sched; sc != nil && p.acct != nil {
			sc.complete(p.acct, class, p.cost)
		}
	} else if s.sched != nil && errors.Is(err, ErrDeadlineExceeded) {
		s.sched.classes[class].expired.Add(1)
	}
	if s.obs != nil {
		lat := time.Since(p.enq)
		if err == nil {
			s.obs.matrix.Observe(id, lat)
		}
		// Class latency records failures too (a deadline miss IS the
		// class's latency story), and independently of scheduling, so a
		// FIFO server still reports per-class percentiles to compare.
		s.obs.class.Observe(class.String(), lat)
	}
	return y, err
}

// batcherKey separates batchers by matrix and SLO class: a batch is a
// single scheduling unit at the gate, so mixing classes inside one would
// let bulk work ride a latency batch's priority (or worse, drag a
// latency request behind a bulk batch).
type batcherKey struct {
	id    string
	class sched.Class
}

func (s *Server) batcherFor(e *Entry, class sched.Class) *batcher {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := batcherKey{id: e.ID, class: class}
	b, ok := s.batchers[key]
	if !ok {
		b = newBatcher(s.cfg.MaxBatch, s.cfg.BatchWindow, s.cfg.Adaptive,
			func(reqs []*pending) { s.executeBatch(e, class, reqs) })
		s.batchers[key] = b
	}
	return b
}

// recordSweep accounts one executed sweep in the global counters and the
// entry's workload observation (the re-tuner's drift signal).
func (s *Server) recordSweep(e *Entry, sv *serving, width int) {
	s.st.recordSweep(width, sv.matrixBytes, sv.sourceBytes, sv.destBytes)
	if sv.ovBytes > 0 {
		// The overlay stream is charged once per sweep, whatever the fused
		// width — the scan runs once over the block, like the matrix stream.
		s.st.overlayBytes.Add(sv.ovBytes)
	}
	e.work.record(width)
}

// executeBatch runs one closed batch as a multi-RHS sweep fanned out over
// the pool. Width-1 batches take the same path, so lone and fused requests
// produce identical bits. The whole batch runs on one serving
// snapshot loaded up front, so a concurrent re-tune promotion never
// mixes operators within a sweep — in-flight sweeps drain on the
// snapshot they started with.
//
// When the priority gate is on, the batch first acquires an execution
// slot under its SLO class and total modeled bytes — this wait, not the
// pool's sweep semaphore, is where cross-class ordering happens. Requests
// whose deadline expired while the batch waited are failed here, after
// the wait and before the sweep, so a saturated server sheds exactly the
// work that can no longer meet its SLO.
func (s *Server) executeBatch(e *Entry, class sched.Class, reqs []*pending) {
	// One snapshot load for the entire batch: gate admission is priced on
	// the same generation the sweep streams, so a re-tune promotion racing
	// the batch can't charge the gate for one operator's bytes and then
	// run another (the torn-generation class snapshotonce vets statically).
	sv := e.cur.Load()
	if sc := s.sched; sc != nil && sc.gate != nil && sv != nil {
		bytes := sweepModeledBytes(sv.matrixBytes, sv.sourceBytes, sv.destBytes, len(reqs)) + sv.ovBytes
		sc.gate.Acquire(class, bytes, nil)
		defer sc.gate.Release()
	}
	// The batch is executing: its bytes leave the tenants' queued ledgers,
	// and deadline-expired requests fail instead of running.
	live := reqs[:0]
	for _, p := range reqs {
		if p.acct != nil {
			p.acct.queuedBytes.Add(-p.cost)
		}
		if !p.deadline.IsZero() && time.Now().After(p.deadline) {
			p.ch <- mulResult{err: fmt.Errorf("%w: request expired while queued", ErrDeadlineExceeded)}
			continue
		}
		live = append(live, p)
	}
	reqs = live
	if len(reqs) == 0 {
		return
	}
	width := len(reqs)
	o := s.obs
	var execStart time.Time // batch formation begins; closes every queue span
	if o != nil {
		execStart = time.Now()
	}
	fail := func(err error) {
		for _, p := range reqs {
			p.ch <- mulResult{err: err}
		}
	}
	if sv == nil {
		fail(fmt.Errorf("server: matrix %q is still compiling", e.ID))
		return
	}
	// Interleave into pooled scratch: xBlock[j*width+v] = x_v[j]. The
	// blocks are recycled across sweeps, so the hot path's only
	// allocations are the result vectors handed back to callers. j stays
	// the outer loop so the big block is written sequentially (one pass)
	// while the k inputs stream.
	buf := e.getBuf(width)
	defer e.putBuf(buf)
	xs := make([][]float64, width)
	for i, p := range reqs {
		xs[i] = p.x
	}
	xBlock := buf.x[:e.cols*width]
	for j := 0; j < e.cols; j++ {
		base := j * width
		for v := range xs {
			xBlock[base+v] = xs[v][j]
		}
	}
	yBlock := buf.y[:e.rows*width]
	clear(yBlock)

	var interDone time.Time // batch formed; the sweep itself starts here
	if o != nil {
		interDone = time.Now()
	}
	if err := s.runFused(sv, yBlock, xBlock, width); err != nil {
		fail(err)
		return
	}
	var execDone time.Time
	if o != nil {
		execDone = time.Now()
		sv.roof.Record(execDone.Sub(interDone),
			sweepModeledBytes(sv.matrixBytes, sv.sourceBytes, sv.destBytes, width)+sv.ovBytes)
	}
	s.recordSweep(e, sv, width)
	// Deinterleave with one sequential pass over the block.
	ys := make([][]float64, width)
	for v := range ys {
		ys[v] = make([]float64, e.rows)
	}
	for j := 0; j < e.rows; j++ {
		base := j * width
		for v := range ys {
			ys[v][j] = yBlock[base+v]
		}
	}
	for v, p := range reqs {
		p.ch <- mulResult{y: ys[v]}
	}
	if o != nil {
		sent := time.Now()
		for _, p := range reqs {
			o.stage.Observe(stageQueue, execStart.Sub(p.enq))
		}
		// Batch-level stages are one measurement each: the work is shared
		// across the whole batch, and per-request copies would overweight
		// wide batches in the stage histograms.
		o.stage.Observe(stageInterleave, interDone.Sub(execStart))
		o.stage.Observe(stageExecute, execDone.Sub(interDone))
		o.stage.Observe(stageGather, sent.Sub(execDone))
		for _, p := range reqs {
			if p.traced {
				o.traceMul(e.ID, sv.gen, width, p.enq, execStart, interDone, execDone, sent)
			}
		}
	}
}

// runFused executes one fused sweep of the snapshot's width-k wide view
// (views are cached inside the operator) over interleaved blocks, its
// internal task set (the operator's thread parts, or the symmetric
// kernel's segment tasks) scheduled through the worker pool. width is the
// interleaved block width, which the snapshot's delta overlay (if any) is
// applied at after the base pass: each dirty row's slots are overwritten
// with the row's canonical merged content, making the result bitwise
// equal to a from-scratch rebuild on the deterministic CSR-family paths
// (see kernel.OverlayRows). Both the batcher's fused path and the solver
// sessions' per-iteration sweeps run through here, so they share the same
// concurrency bounds and the same bits.
func (s *Server) runFused(sv *serving, yBlock, xBlock []float64, width int) error {
	mo, err := sv.op.WideMulti(width)
	if err != nil {
		return err
	}
	if err := mo.MulAddBlockExec(yBlock, xBlock, s.pool.RunSweep); err != nil {
		return err
	}
	if sv.ov == nil {
		return nil
	}
	// Serial overwrite after the parallel base pass: dirty rows are a
	// small fraction of the matrix by construction (recompaction folds
	// the overlay before it grows past a threshold share of the base
	// stream), and row independence means no ordering races to manage.
	return kernel.OverlayRows(yBlock, xBlock, width, sv.ov.Rows())
}

// Matrices lists the registered matrices.
func (s *Server) Matrices() []MatrixInfo {
	entries := s.reg.List()
	out := make([]MatrixInfo, len(entries))
	for i, e := range entries {
		out[i] = s.info(e)
	}
	return out
}
