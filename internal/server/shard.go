package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	spmv "repro"
	"repro/internal/obs"
	"repro/internal/partition"
)

// ClusterConfig sizes the shard coordinator.
type ClusterConfig struct {
	// Replicas is how many members serve each shard band (read scaling and
	// failover). Clamped to the member count; <= 0 means 1.
	Replicas int
	// EjectAfter is the number of consecutive failures after which a member
	// stops receiving traffic. <= 0 means 3. Ejection is no longer sticky:
	// an ejected member re-enters rotation through the half-open probe
	// loop (ProbeInterval / ProbeMaxBackoff).
	EjectAfter int
	// Policy selects the replica-routing policy (see RoutePolicy); the
	// zero value is round-robin.
	Policy RoutePolicy
	// ProbeInterval is the base backoff before an ejected member gets its
	// first half-open probe; each failed probe doubles it up to
	// ProbeMaxBackoff. <= 0 means DefaultProbeInterval.
	ProbeInterval time.Duration
	// ProbeMaxBackoff caps the exponential probe backoff. <= 0 means
	// DefaultProbeMaxBackoff.
	ProbeMaxBackoff time.Duration
	// RebalanceSkew arms online rebanding: when the Jain fairness index of
	// per-member served bytes (since the last topology swap) drops below
	// this threshold, the coordinator re-splits the matrix's row bands
	// over observed per-band costs and swaps the topology copy-on-write.
	// 0 (or anything <= 0) disables automatic rebalancing; sensible
	// values sit in (0.5, 1) — e.g. 0.9.
	RebalanceSkew float64
}

// Member is one node of the cluster with its routing health state.
type Member struct {
	t    Transport
	name string

	requests atomic.Uint64 // successful band sub-requests
	failures atomic.Uint64 // failed band sub-requests
	consec   atomic.Int32  // consecutive failures (reset on success)
	ejected  atomic.Bool

	// Routing load state: modeled sweep bytes currently in flight
	// (charged at dispatch, released at completion) and total bytes
	// served — the least-loaded signal and the rebalance skew input.
	inflight atomic.Int64
	served   atomic.Int64

	// Decayed failure window (see observeOutcome): winFail/winTotal is
	// the windowed failure rate the weighted policy penalizes, catching
	// the alternating success/failure member that never trips EjectAfter.
	winTotal atomic.Int64
	winFail  atomic.Int64

	// Coordinator-observed sub-request latency; p99ns caches the rolled-up
	// p99 so the weighted scorer reads one atomic, not a histogram walk.
	lat   *obs.Histogram
	latN  atomic.Int64
	p99ns atomic.Int64

	// Half-open recovery state (unix nanos on the cluster clock).
	lastFail   atomic.Int64
	nextProbe  atomic.Int64
	backoffNS  atomic.Int64
	probing    atomic.Bool   // single-flight latch: one half-open trial at a time
	probes     atomic.Uint64 // half-open trials issued
	recoveries atomic.Uint64 // probes that restored the member
}

// Probe-circuit state names surfaced by MemberInfo.Probe, following the
// circuit-breaker convention: closed = healthy and in rotation, open =
// ejected with the probe window still closed, half-open = ejected with
// the window open (the next request may be routed as a probe).
const (
	ProbeClosed   = "closed"
	ProbeOpen     = "open"
	ProbeHalfOpen = "half-open"
)

// probeState derives the member's circuit state at time now.
func (m *Member) probeState(now time.Time) string {
	if !m.ejected.Load() {
		return ProbeClosed
	}
	if m.nextProbe.Load() <= now.UnixNano() {
		return ProbeHalfOpen
	}
	return ProbeOpen
}

// MemberInfo is the topology view of one member.
type MemberInfo struct {
	Name     string `json:"name"`
	Ejected  bool   `json:"ejected"`
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	// InFlightBytes is the modeled sweep bytes currently dispatched to
	// the member and not yet completed — the least-loaded policy's signal.
	InFlightBytes int64 `json:"inflight_bytes"`
	// ServedBytes is the cumulative modeled bytes the member has served.
	ServedBytes int64 `json:"served_bytes"`
	// FailureRate is the decayed windowed failure rate in [0,1].
	FailureRate float64 `json:"failure_rate"`
	// P99US is the member's rolled-up sub-request p99 in microseconds (0
	// until enough samples accumulate).
	P99US float64 `json:"p99_us"`
	// Probe is the half-open circuit state: closed, open, or half-open.
	Probe      string `json:"probe"`
	Probes     uint64 `json:"probes"`
	Recoveries uint64 `json:"recoveries"`
}

// band is one shard of a sharded matrix: a contiguous row range served by
// one or more replica members.
type band struct {
	shard  int
	lo, hi int
	nnz    int64
	subID  string // the band's matrix id on its members

	// Modeled DRAM bytes one single-RHS sweep moves on a member serving
	// this band — the per-node cost of one scattered request, and the
	// input to the bandwidth-bound scaling model.
	sweepBytes int64

	replicas []*Member
	next     atomic.Uint32 // round-robin cursor over replicas

	// Observed serving cost (successful sub-requests and their summed
	// wall time): the rebalancer's per-band cost signal.
	served   atomic.Int64
	servedNS atomic.Int64
}

// topology is one immutable generation of a sharded matrix's band layout.
// Rebalancing builds a new topology and swaps the atomic pointer; requests
// in flight keep serving on the generation they loaded (member registries
// are append-only, so old sub-ids stay valid while they drain).
type topology struct {
	gen   int
	bands []*band
	// sweepBytes sums the bands' modeled per-request bytes: the fleet-wide
	// cost of one sharded Mul, and the admission charge on the cluster
	// front.
	sweepBytes int64
	// baseline snapshots per-member served bytes at the swap, so skew is
	// measured over traffic this topology routed, not the fleet's history.
	baseline []int64
}

// shardedEntry is one matrix split across the cluster.
type shardedEntry struct {
	id, name   string
	rows, cols int
	nnz        int64
	replicas   int

	// src is the registered matrix, retained so online rebanding can
	// re-split rows without a client round-trip (doubles coordinator
	// memory for the matrix — the price of elasticity).
	src *spmv.Matrix

	symOnce sync.Once
	symIs   bool

	topo atomic.Pointer[topology]

	muls        atomic.Uint64 // cluster Muls served (rebalance check cadence)
	lastCheck   atomic.Uint64 // muls count at the last auto-rebalance trigger
	rebalancing atomic.Bool   // single-flight latch for the async auto-reband
	rebalanceMu sync.Mutex    // serializes topology swaps for this matrix
}

// BandInfo is the topology view of one shard band.
type BandInfo struct {
	Shard      int      `json:"shard"`
	Lo         int      `json:"lo"`
	Hi         int      `json:"hi"`
	NNZ        int64    `json:"nnz"`
	SubID      string   `json:"sub_id"`
	Members    []string `json:"members"`
	SweepBytes int64    `json:"sweep_bytes"`
}

// ShardedMatrixInfo describes one matrix served by the cluster.
type ShardedMatrixInfo struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
	NNZ      int64  `json:"nnz"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`
	// Generation counts topology swaps: 0 at registration, +1 per reband.
	Generation int        `json:"generation"`
	Bands      []BandInfo `json:"bands"`
	// MaxBandSweepBytes is the modeled per-request DRAM bytes on the
	// most-loaded member — the bottleneck of the bandwidth-bound aggregate
	// throughput model (a node sustaining BW serves at most
	// BW/MaxBandSweepBytes requests/s; see traffic.SustainedSweepRate).
	MaxBandSweepBytes int64 `json:"max_band_sweep_bytes"`
}

// ClusterMulOptions carries per-request routing hints for the sharded
// Mul path.
type ClusterMulOptions struct {
	// Affinity is the session-affinity key: under RouteAffinity, requests
	// sharing a key rendezvous-hash to the same replica of each band
	// (solver sessions pass their session id so every iteration hits the
	// same member's warm caches).
	Affinity string
}

// Cluster is the shard coordinator: it splits each registered matrix into
// nonzero-balanced row bands (internal/partition, the paper's §4.3 static
// load balancing lifted from threads to nodes), registers every band on
// Replicas member nodes, and serves Mul by broadcasting x to all bands and
// gathering the disjoint y bands — the same row-block decomposition the
// paper's OSKI-PETSc baseline runs over MPI ranks (§6.2), here behind a
// Transport so members can be in-process servers or remote spmv-serve
// nodes. Each member keeps its own tuner cache, adaptive batcher, and
// fused sweeps, so concurrent cluster requests still coalesce into
// multi-RHS sweeps on every member.
//
// Replica selection is policy-driven (ClusterConfig.Policy), member
// ejection heals through a half-open probe loop, and band layouts can be
// rebalanced online (Rebalance / ClusterConfig.RebalanceSkew) — see
// route.go and rebalance.go.
//
// All methods are safe for concurrent use.
type Cluster struct {
	cfg     ClusterConfig
	members []*Member

	// now is the cluster clock (probe scheduling, latency measurement);
	// injectable so recovery tests run on a fake clock.
	now       func() time.Time
	probeBase time.Duration
	probeCap  time.Duration

	mu      sync.RWMutex
	byID    map[string]*shardedEntry
	pending map[string]bool // ids mid-registration
	seq     int

	requests   atomic.Uint64 // cluster Mul requests admitted
	scatters   atomic.Uint64 // band sub-requests issued
	retries    atomic.Uint64 // failed band sub-request attempts
	failovers  atomic.Uint64 // bands served by a non-first replica attempt
	ejections  atomic.Uint64 // members ejected
	probes     atomic.Uint64 // half-open probe trials issued
	recoveries atomic.Uint64 // probes that restored a member
	rebalances atomic.Uint64 // topology swaps (manual + automatic)
}

// NewCluster builds a coordinator over the given member transports.
func NewCluster(members []Transport, cfg ClusterConfig) (*Cluster, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("server: cluster needs at least one member")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(members) {
		cfg.Replicas = len(members)
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 3
	}
	if _, err := ParseRoutePolicy(string(cfg.Policy)); err != nil {
		return nil, err
	}
	if cfg.Policy == "" {
		cfg.Policy = RouteRoundRobin
	}
	c := &Cluster{
		cfg:       cfg,
		now:       time.Now,
		probeBase: cfg.ProbeInterval,
		probeCap:  cfg.ProbeMaxBackoff,
		byID:      make(map[string]*shardedEntry),
		pending:   make(map[string]bool),
	}
	if c.probeBase <= 0 {
		c.probeBase = DefaultProbeInterval
	}
	if c.probeCap < c.probeBase {
		c.probeCap = DefaultProbeMaxBackoff
	}
	if c.probeCap < c.probeBase {
		c.probeCap = c.probeBase
	}
	for _, t := range members {
		c.members = append(c.members, &Member{t: t, name: t.Name(), lat: obs.NewHistogram()})
	}
	return c, nil
}

// Policy returns the cluster's routing policy.
func (c *Cluster) Policy() RoutePolicy { return c.cfg.Policy }

// memberInfo snapshots one member's topology view at time now.
func memberInfo(m *Member, now time.Time) MemberInfo {
	p99 := time.Duration(m.p99ns.Load())
	return MemberInfo{
		Name: m.name, Ejected: m.ejected.Load(),
		Requests: m.requests.Load(), Failures: m.failures.Load(),
		InFlightBytes: m.inflight.Load(), ServedBytes: m.served.Load(),
		FailureRate: m.failRate(),
		P99US:       float64(p99) / float64(time.Microsecond),
		Probe:       m.probeState(now),
		Probes:      m.probes.Load(), Recoveries: m.recoveries.Load(),
	}
}

// Members returns the topology view of every member.
func (c *Cluster) Members() []MemberInfo {
	now := c.now()
	out := make([]MemberInfo, len(c.members))
	for i, m := range c.members {
		out[i] = memberInfo(m, now)
	}
	return out
}

// Has reports whether id is served by the cluster.
func (c *Cluster) Has(id string) bool {
	c.mu.RLock()
	_, ok := c.byID[id]
	c.mu.RUnlock()
	return ok
}

// entry looks up a sharded matrix.
func (c *Cluster) entry(id string) (*shardedEntry, error) {
	c.mu.RLock()
	e, ok := c.byID[id]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (sharded)", ErrUnknownMatrix, id)
	}
	return e, nil
}

// Unregister removes a sharded matrix from the coordinator and tears its
// band registrations down on the members, returning how many member band
// registrations it removed. The entry leaves the routing table first (new
// requests see ErrUnknownMatrix), then each current-topology band is
// unregistered on every replica, best-effort: member faults are collected
// into one ErrMemberFault, but the matrix is gone from the coordinator
// regardless — an unreachable member keeps a dangling band registration,
// surfaced by the error so an operator can retry against it. Bands from
// superseded topology generations are out of scope: their generation-
// stamped subIDs are never routed to again.
func (c *Cluster) Unregister(id string) (int, error) {
	c.mu.Lock()
	e, ok := c.byID[id]
	if ok {
		delete(c.byID, id)
	}
	c.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w %q (sharded)", ErrUnknownMatrix, id)
	}
	t := e.topo.Load()
	if t == nil {
		return 0, nil
	}
	removed := 0
	var faults []error
	for _, b := range t.bands {
		for _, m := range b.replicas {
			if err := m.t.Unregister(b.subID); err != nil {
				faults = append(faults, fmt.Errorf("member %s band %s: %w", m.name, b.subID, err))
				continue
			}
			removed++
		}
	}
	if len(faults) > 0 {
		return removed, fmt.Errorf("%w: %d band teardown(s) failed (first: %v)", ErrMemberFault, len(faults), faults[0])
	}
	return removed, nil
}

// Info returns the sharded topology of one matrix.
func (c *Cluster) Info(id string) (ShardedMatrixInfo, error) {
	e, err := c.entry(id)
	if err != nil {
		return ShardedMatrixInfo{}, err
	}
	return e.info(), nil
}

// RequestBytes returns the modeled fleet-wide DRAM bytes one sharded Mul
// of id moves — the admission cost the cluster front charges.
func (c *Cluster) RequestBytes(id string) (int64, error) {
	e, err := c.entry(id)
	if err != nil {
		return 0, err
	}
	return e.topo.Load().sweepBytes, nil
}

// Generation returns the matrix's current topology generation (0 until
// the first reband), or -1 if id is unknown.
func (c *Cluster) Generation(id string) int {
	e, err := c.entry(id)
	if err != nil {
		return -1
	}
	return e.topo.Load().gen
}

// IsSymmetric reports whether the sharded matrix is numerically
// symmetric (computed once from the retained source; the cluster solve
// path's CG precondition).
func (c *Cluster) IsSymmetric(id string) (bool, error) {
	e, err := c.entry(id)
	if err != nil {
		return false, err
	}
	e.symOnce.Do(func() { e.symIs = e.src.IsSymmetric() })
	return e.symIs, nil
}

// Matrices lists the cluster's sharded matrices ordered by id.
func (c *Cluster) Matrices() []ShardedMatrixInfo {
	c.mu.RLock()
	out := make([]ShardedMatrixInfo, 0, len(c.byID))
	for _, e := range c.byID {
		out = append(out, e.info())
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (e *shardedEntry) info() ShardedMatrixInfo {
	t := e.topo.Load()
	info := ShardedMatrixInfo{
		ID: e.id, Name: e.name, Rows: e.rows, Cols: e.cols, NNZ: e.nnz,
		Shards: len(t.bands), Replicas: e.replicas, Generation: t.gen,
	}
	for _, b := range t.bands {
		bi := BandInfo{
			Shard: b.shard, Lo: b.lo, Hi: b.hi, NNZ: b.nnz,
			SubID: b.subID, SweepBytes: b.sweepBytes,
		}
		for _, m := range b.replicas {
			bi.Members = append(bi.Members, m.name)
		}
		info.Bands = append(info.Bands, bi)
		if b.sweepBytes > info.MaxBandSweepBytes {
			info.MaxBandSweepBytes = b.sweepBytes
		}
	}
	return info
}

// RegisterSharded splits m into `shards` nonzero-balanced row bands,
// registers each band on Replicas members (round-robin placement, distinct
// members per band), and serves the matrix under id from then on. The
// empty id asks the coordinator to generate one. Registration is not
// atomic across members: on failure the coordinator reports the error and
// the id stays free, but bands already registered remain on their members
// under id-derived sub-ids (member registries are append-only).
func (c *Cluster) RegisterSharded(id, name string, m *spmv.Matrix, shards int) (ShardedMatrixInfo, error) {
	if m == nil {
		return ShardedMatrixInfo{}, fmt.Errorf("server: nil matrix")
	}
	rows, cols := m.Dims()
	if rows <= 0 || cols <= 0 {
		return ShardedMatrixInfo{}, fmt.Errorf("server: empty matrix %dx%d", rows, cols)
	}
	if shards < 1 {
		return ShardedMatrixInfo{}, fmt.Errorf("server: need at least 1 shard, got %d", shards)
	}
	if shards > rows {
		shards = rows
	}

	// Reserve the id so concurrent registrations cannot race it; readers
	// only ever see fully built entries.
	c.mu.Lock()
	if id == "" {
		c.seq++
		id = fmt.Sprintf("c%d", c.seq)
	}
	if _, ok := c.byID[id]; ok || c.pending[id] {
		c.mu.Unlock()
		return ShardedMatrixInfo{}, fmt.Errorf("%w: matrix %q", ErrAlreadyRegistered, id)
	}
	c.pending[id] = true
	c.mu.Unlock()

	e, err := c.buildSharded(id, name, m, rows, cols, shards)
	c.mu.Lock()
	delete(c.pending, id)
	if err == nil {
		c.byID[id] = e
	}
	c.mu.Unlock()
	if err != nil {
		return ShardedMatrixInfo{}, err
	}
	return e.info(), nil
}

// buildSharded bands the matrix over per-row nonzero counts (generation
// 0) and registers every band on its replicas.
func (c *Cluster) buildSharded(id, name string, m *spmv.Matrix, rows, cols, shards int) (*shardedEntry, error) {
	counts := make([]int64, rows)
	m.Entries(func(i, j int, v float64) { counts[i]++ })
	bands, total, err := c.buildBands(id, name, 0, m, rows, cols, counts, shards, c.members, c.cfg.Replicas)
	if err != nil {
		return nil, err
	}
	e := &shardedEntry{
		id: id, name: name, rows: rows, cols: cols,
		nnz: m.NNZ(), replicas: c.cfg.Replicas, src: m,
	}
	e.topo.Store(&topology{bands: bands, sweepBytes: total, baseline: c.servedSnapshot()})
	return e, nil
}

// buildBands splits m's rows into shards bands balanced over weights and
// registers each band on replicas members from pool. Generation 0 keeps
// the legacy (k+rep)%len(pool) placement; later generations place
// greedily onto the least-assigned members (by weight), which is what
// moves load toward idle or freshly recovered nodes.
func (c *Cluster) buildBands(id, name string, gen int, m *spmv.Matrix, rows, cols int, weights []int64, shards int, pool []*Member, replicas int) ([]*band, int64, error) {
	p, err := partition.ByNNZCounts(weights, shards)
	if err != nil {
		return nil, 0, err
	}

	// Split the entries into per-band coordinate matrices. bandOf maps a
	// row to its band so the single pass over the entries stays O(nnz).
	bandOf := make([]int32, rows)
	bandMs := make([]*spmv.Matrix, len(p.Ranges))
	for k, r := range p.Ranges {
		for i := r.Lo; i < r.Hi; i++ {
			bandOf[i] = int32(k)
		}
		if r.Rows() > 0 {
			bandMs[k] = spmv.NewMatrix(r.Rows(), cols)
		}
	}
	var setErr error
	m.Entries(func(i, j int, v float64) {
		k := bandOf[i]
		if err := bandMs[k].Set(i-p.Ranges[k].Lo, j, v); err != nil && setErr == nil {
			setErr = err
		}
	})
	if setErr != nil {
		return nil, 0, setErr
	}

	assigned := make([]int64, len(pool)) // greedy placement tallies (gen > 0)
	var bands []*band
	var total int64
	for k, r := range p.Ranges {
		subID := fmt.Sprintf("%s.s%d", id, k)
		if gen > 0 {
			subID = fmt.Sprintf("%s.g%d.s%d", id, gen, k)
		}
		b := &band{shard: k, lo: r.Lo, hi: r.Hi, nnz: r.NNZ, subID: subID}
		bands = append(bands, b)
		if bandMs[k] == nil {
			continue // empty band: no rows to serve
		}
		targets := placeBand(pool, assigned, k, r.NNZ, replicas, gen)
		for rep, mem := range targets {
			info, err := mem.t.Register(b.subID, fmt.Sprintf("%s/shard%d", name, k), bandMs[k])
			if err != nil {
				return nil, 0, fmt.Errorf("%w: shard %d on member %s: %w", ErrMemberFault, k, mem.name, err)
			}
			if info.Rows != r.Rows() || info.Cols != cols {
				return nil, 0, fmt.Errorf("server: shard %d on member %s registered as %dx%d, want %dx%d",
					k, mem.name, info.Rows, info.Cols, r.Rows(), cols)
			}
			if rep == 0 {
				b.sweepBytes = info.SweepBytes
			}
			b.replicas = append(b.replicas, mem)
		}
		total += b.sweepBytes
	}
	return bands, total, nil
}

// placeBand picks the band's replica members. Generation 0 reproduces
// the legacy rotation; rebands assign each band to the replicas with
// the smallest cumulative assigned weight (deterministic ties by index),
// so a re-split also re-spreads load.
func placeBand(pool []*Member, assigned []int64, k int, weight int64, replicas, gen int) []*Member {
	out := make([]*Member, 0, replicas)
	if gen == 0 {
		for rep := 0; rep < replicas; rep++ {
			out = append(out, pool[(k+rep)%len(pool)])
		}
		return out
	}
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return assigned[idx[a]] < assigned[idx[b]] })
	for rep := 0; rep < replicas && rep < len(idx); rep++ {
		i := idx[rep]
		assigned[i] += weight
		out = append(out, pool[i])
	}
	return out
}

// servedSnapshot captures per-member served bytes (a topology baseline).
func (c *Cluster) servedSnapshot() []int64 {
	out := make([]int64, len(c.members))
	for i, m := range c.members {
		out[i] = m.served.Load()
	}
	return out
}

// Mul computes y = A·x for the sharded matrix id with default routing
// options: x is broadcast to one replica of every band (scatter), the
// disjoint y bands are gathered into one result.
func (c *Cluster) Mul(id string, x []float64) ([]float64, error) {
	return c.MulOpts(id, x, ClusterMulOptions{})
}

// MulOpts is Mul with per-request routing options. Band sub-requests run
// concurrently; replica choice follows the configured policy, a failed
// member is retried on the next-ranked replica, members ejected after
// EjectAfter consecutive failures heal through half-open probes.
func (c *Cluster) MulOpts(id string, x []float64, opts ClusterMulOptions) ([]float64, error) {
	c.mu.RLock()
	e, ok := c.byID[id]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (sharded)", ErrUnknownMatrix, id)
	}
	if len(x) != e.cols {
		return nil, fmt.Errorf("server: matrix %q is %dx%d, len(x)=%d", id, e.rows, e.cols, len(x))
	}
	c.requests.Add(1)

	// One topology load per request: every band of this Mul comes from the
	// same generation even if a reband swaps mid-flight.
	t := e.topo.Load()
	y := make([]float64, e.rows)
	errs := make([]error, len(t.bands))
	var wg sync.WaitGroup
	for i, b := range t.bands {
		if len(b.replicas) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, b *band) {
			defer wg.Done()
			errs[i] = c.mulBand(b, x, y, opts.Affinity)
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.maybeRebalance(e, t)
	return y, nil
}

// mulBand serves one band: replicas are ranked by the routing policy,
// each failure falls through to the next candidate. Ejected members with
// an open probe window lead the ranking as half-open probes
// (single-flight per member, failure falls through to a live replica);
// when every replica is ejected and no window is open, the
// least-recently-failed member gets a forced probe rather than failing
// the request outright.
func (c *Cluster) mulBand(b *band, x, y []float64, affinity string) error {
	c.scatters.Add(1)
	cands := c.rankReplicas(b, affinity, c.now())
	forced := false
	if len(cands) == 0 {
		if m := leastRecentlyFailed(b.replicas); m != nil {
			cands = append(cands, m)
			forced = true
		}
	}
	var lastErr error
	tried := 0
	for _, mem := range cands {
		probe := mem.ejected.Load()
		if probe {
			if !mem.probing.CompareAndSwap(false, true) {
				continue // another request is already probing this member
			}
			mem.probes.Add(1)
			c.probes.Add(1)
		}
		tried++
		start := c.now()
		mem.inflight.Add(b.sweepBytes)
		yb, err := mem.t.Mul(b.subID, x)
		mem.inflight.Add(-b.sweepBytes)
		elapsed := c.now().Sub(start)
		if err == nil && !gatherBand(y, yb, b.lo, b.hi) {
			err = fmt.Errorf("server: member %s returned %d rows for band [%d,%d)",
				mem.name, len(yb), b.lo, b.hi)
		}
		mem.observeOutcome(err == nil)
		if err == nil {
			mem.requests.Add(1)
			mem.consec.Store(0)
			mem.served.Add(b.sweepBytes)
			mem.noteLatency(elapsed)
			b.served.Add(1)
			b.servedNS.Add(int64(elapsed))
			if probe {
				c.restore(mem)
			}
			if tried > 1 {
				c.failovers.Add(1)
			}
			return nil
		}
		lastErr = err
		mem.failures.Add(1)
		c.retries.Add(1)
		c.noteFailure(mem, probe, c.now())
	}
	if tried == 0 {
		return fmt.Errorf("%w: band [%d,%d) of %q: all %d replicas ejected", ErrMemberFault, b.lo, b.hi, b.subID, len(b.replicas))
	}
	if forced {
		return fmt.Errorf("%w: band [%d,%d) of %q: all replicas ejected; forced probe of %s failed: %w",
			ErrMemberFault, b.lo, b.hi, b.subID, cands[0].name, lastErr)
	}
	return fmt.Errorf("%w: band [%d,%d) of %q failed on all live replicas: %w", ErrMemberFault, b.lo, b.hi, b.subID, lastErr)
}

// MemberStats is one member's rollup entry in ClusterStats.
type MemberStats struct {
	MemberInfo
	Serving Stats  `json:"serving"` // the member's own serving counters
	Error   string `json:"error,omitempty"`
}

// ClusterStats is the coordinator's counter snapshot plus the per-member
// serving rollup surfaced under "cluster" in /v1/stats.
type ClusterStats struct {
	Members    int    `json:"members"`
	Ejected    int    `json:"ejected"`
	Matrices   int    `json:"matrices"`
	Policy     string `json:"policy"`
	Requests   uint64 `json:"requests"`
	Scatters   uint64 `json:"scatters"`
	Retries    uint64 `json:"retries"`
	Failovers  uint64 `json:"failovers"`
	Ejections  uint64 `json:"ejections"`
	Probes     uint64 `json:"probes"`
	Recoveries uint64 `json:"recoveries"`
	Rebalances uint64 `json:"rebalances"`

	Member []MemberStats `json:"member"`
	// Aggregate sums the reachable members' serving counters: fleet-wide
	// sweeps, fusion widths, and modeled DRAM bytes.
	Aggregate Stats `json:"aggregate"`
}

// Stats snapshots the coordinator and polls every member for its serving
// counters. Unreachable members report an error string and contribute
// nothing to the aggregate.
func (c *Cluster) Stats() ClusterStats {
	out := ClusterStats{
		Members:    len(c.members),
		Policy:     string(c.cfg.Policy),
		Requests:   c.requests.Load(),
		Scatters:   c.scatters.Load(),
		Retries:    c.retries.Load(),
		Failovers:  c.failovers.Load(),
		Ejections:  c.ejections.Load(),
		Probes:     c.probes.Load(),
		Recoveries: c.recoveries.Load(),
		Rebalances: c.rebalances.Load(),
	}
	c.mu.RLock()
	out.Matrices = len(c.byID)
	c.mu.RUnlock()
	now := c.now()
	for _, m := range c.members {
		ms := MemberStats{MemberInfo: memberInfo(m, now)}
		if ms.Ejected {
			out.Ejected++
		}
		st, err := m.t.Stats()
		if err != nil {
			ms.Error = err.Error()
		} else {
			ms.Serving = st
			addStats(&out.Aggregate, st)
		}
		out.Member = append(out.Member, ms)
	}
	return out
}

// addStats accumulates b into dst, field by field.
func addStats(dst *Stats, b Stats) {
	dst.Requests += b.Requests
	dst.Sweeps += b.Sweeps
	dst.FusedSweeps += b.FusedSweeps
	dst.FusedRequests += b.FusedRequests
	dst.SingleFallbacks += b.SingleFallbacks
	for i := range dst.FusedWidthHist {
		dst.FusedWidthHist[i] += b.FusedWidthHist[i]
	}
	dst.Registered += b.Registered
	dst.Compiles += b.Compiles
	dst.MatrixBytes += b.MatrixBytes
	dst.SourceBytes += b.SourceBytes
	dst.DestBytes += b.DestBytes
	dst.SavedBytes += b.SavedBytes
}
