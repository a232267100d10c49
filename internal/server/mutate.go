// Mutable matrices: PATCH /v1/matrices/{id} applies a batch of COO
// deltas to a registered matrix, DELETE /v1/matrices/{id} tears one down,
// and a background recompactor folds accumulated deltas into a fresh
// compiled base once their overlay stream crosses the traffic-modeled
// threshold (Config.RecompactThreshold).
//
// The serving story: deltas land in the entry's seq-ordered log
// (internal/matrix/delta), which publishes an immutable per-row overlay
// into the entry's serving snapshot. Every sweep applies the overlay
// after the base-operator pass by OVERWRITING dirty rows with their
// canonical merged content — on the deterministic CSR-family paths the
// result is bitwise identical to a from-scratch rebuild of the mutated
// matrix, at any thread count, fused width, or delta batch split (see
// kernel.OverlayRows for the argument). Recompaction then folds the log
// into a new base matrix, recompiles it, and promotes via the same
// copy-on-write snapshot swap re-tuning uses: in-flight sweeps drain on
// the old generation while new arrivals see the folded one, and — again
// on the deterministic paths — the swap moves no bits, so a promotion
// landing mid-solve leaves the trajectory exactly where a rebuild would.
package server

import (
	"fmt"
	"log/slog"
	"time"

	spmv "repro"
	"repro/internal/matrix/delta"
	"repro/internal/traffic"
)

// Delta is one COO mutation on the wire: op is "set" (replace the entry
// at (row, col), creating it), "add" (accumulate onto it, MatrixMarket
// additive semantics), or "del" (remove it; val ignored). Deltas apply in
// slice order, each assigned the next sequence number of the matrix's
// delta log.
type Delta struct {
	Op  string  `json:"op"`
	Row int32   `json:"row"`
	Col int32   `json:"col"`
	Val float64 `json:"val,omitempty"`
}

// MaxPatchDeltas caps one PATCH batch, bounding the memory and the
// tuneMu hold time a single request can demand. Larger edits split into
// multiple batches — results are invariant to the split.
const MaxPatchDeltas = 1 << 20

// PatchResult reports a PATCH batch's outcome: where the delta log
// stands, what the live overlay costs each sweep, and whether the batch
// tripped background recompaction.
type PatchResult struct {
	ID string `json:"id"`
	// Seq is the log's op count after this batch — per generation; a
	// recompaction folds the log into the base and restarts it.
	Seq     int `json:"seq"`
	Applied int `json:"applied"` // ops in this batch
	// DirtyRows/OverlayBytes describe the live overlay: rows sweeps
	// overwrite and the modeled per-sweep stream they cost, against the
	// base operator's MatrixBytes the recompaction trigger compares with.
	DirtyRows    int   `json:"dirty_rows"`
	OverlayBytes int64 `json:"overlay_bytes"`
	MatrixBytes  int64 `json:"matrix_bytes"`
	// Recompacting reports that a background recompaction is in flight
	// (this batch's doing or an earlier one's).
	Recompacting bool `json:"recompacting"`
	Generation   int  `json:"generation"`
}

// DeleteResult reports a DELETE teardown.
type DeleteResult struct {
	ID string `json:"id"`
	// CancelledSessions counts the resident solver sessions the teardown
	// cancelled and drained.
	CancelledSessions int `json:"cancelled_sessions"`
	// Sharded marks a cluster-sharded teardown; Bands counts the member
	// band registrations the coordinator unregistered (best-effort).
	Sharded bool `json:"sharded,omitempty"`
	Bands   int  `json:"bands,omitempty"`
}

// parseDeltas converts wire deltas to log ops, rejecting unknown kinds.
// Range and finiteness checks belong to the log (delta.Log.Validate),
// which sees the matrix dimensions.
func parseDeltas(deltas []Delta) ([]delta.Op, error) {
	ops := make([]delta.Op, len(deltas))
	for n, d := range deltas {
		var k delta.Kind
		switch d.Op {
		case "set":
			k = delta.Set
		case "add":
			k = delta.Add
		case "del":
			k = delta.Del
		default:
			return nil, fmt.Errorf("delta %d: unknown op %q (want set, add, or del)", n, d.Op)
		}
		ops[n] = delta.Op{Kind: k, Row: d.Row, Col: d.Col, Val: d.Val}
	}
	return ops, nil
}

// Patch applies one batch of deltas to a registered matrix. The batch is
// atomic (all ops validate before any applies) and ordered (ops apply in
// slice order, extending the matrix's delta log). Sweeps started after
// Patch returns see every op; sweeps in flight finish on the snapshot
// they loaded. Cluster-sharded matrices reject with ErrShardedImmutable:
// their bands are registered as immutable entries across members.
func (s *Server) Patch(id string, deltas []Delta) (PatchResult, error) {
	e, err := s.reg.Get(id)
	if err != nil {
		if s.cluster != nil && s.cluster.Has(id) {
			return PatchResult{}, fmt.Errorf("%w: %q is cluster-sharded; re-register to mutate", ErrShardedImmutable, id)
		}
		return PatchResult{}, err
	}
	if len(deltas) == 0 {
		return PatchResult{}, fmt.Errorf("server: empty delta batch")
	}
	if len(deltas) > MaxPatchDeltas {
		return PatchResult{}, fmt.Errorf("server: %d deltas exceed the %d per-batch cap", len(deltas), MaxPatchDeltas)
	}
	ops, err := parseDeltas(deltas)
	if err != nil {
		return PatchResult{}, err
	}

	e.tuneMu.Lock()
	sv := e.cur.Load()
	if sv == nil {
		e.tuneMu.Unlock()
		return PatchResult{}, fmt.Errorf("server: matrix %q is still compiling", id)
	}
	if e.log == nil {
		// First mutation: index the base into a delta log. e.m is stable
		// under tuneMu (recompaction swaps it under this same lock).
		base := e.m
		e.log = delta.NewLog(e.rows, e.cols, func(yield func(i, j int32, v float64)) {
			base.Entries(func(i, j int, v float64) { yield(int32(i), int32(j), v) })
		})
	}
	if err := e.log.Apply(ops); err != nil {
		e.tuneMu.Unlock()
		return PatchResult{}, err
	}
	ov := e.log.Overlay()
	ovBytes := traffic.OverlaySweepBytes(ov.DirtyRows(), ov.Entries())
	// Publish copy-on-write: same operator, same generation, new overlay.
	nsv := *sv
	nsv.ov = ov
	nsv.ovBytes = ovBytes
	e.cur.Store(&nsv)
	res := PatchResult{
		ID: id, Seq: e.log.Seq(), Applied: len(ops),
		DirtyRows: ov.DirtyRows(), OverlayBytes: ovBytes,
		MatrixBytes: sv.matrixBytes, Generation: sv.gen,
	}
	trigger := traffic.ShouldRecompact(ovBytes, sv.matrixBytes, s.cfg.RecompactThreshold)
	e.tuneMu.Unlock()

	s.st.patches.Add(1)
	s.st.deltasApplied.Add(uint64(len(ops)))
	if trigger && e.recompacting.CompareAndSwap(false, true) {
		go func() {
			if err := s.recompactEntry(e); err != nil {
				s.log.Error("recompaction failed",
					slog.String("matrix", e.ID), slog.String("error", err.Error()))
			}
		}()
	}
	res.Recompacting = e.recompacting.Load()
	return res, nil
}

// Recompact synchronously folds a matrix's pending deltas into a fresh
// compiled base (the operation the background recompactor runs when the
// overlay crosses the threshold). A no-op when nothing is pending; an
// error when a background recompaction is already in flight.
func (s *Server) Recompact(id string) error {
	e, err := s.reg.Get(id)
	if err != nil {
		return err
	}
	if !e.recompacting.CompareAndSwap(false, true) {
		return fmt.Errorf("server: recompaction of %q already in flight", id)
	}
	return s.recompactEntry(e)
}

// recompactEntry folds the entry's delta log into a fresh base matrix,
// recompiles it, and promotes the result. The caller holds the entry's
// recompacting latch; it is released on every exit.
//
// Three phases keep the expensive work off the entry's writer lock:
//
//  1. Under tuneMu: capture the log's seq and fold it into a new base
//     matrix (a linear copy).
//  2. Off-lock: compile the folded base — CSR construction and kernel
//     compilation, the dominant cost — while patches keep landing.
//  3. Under tuneMu again: rebuild the delta log over the folded base,
//     replay the ops that arrived during phase 2 (Tail(seq)), swap the
//     entry's base and operator caches, and promote a new serving
//     snapshot (gen+1) carrying whatever overlay the replay left.
//
// Symmetric-served entries re-verify symmetry on the folded matrix:
// deltas that broke it demote the entry to general storage (the
// symmetric kernel would silently compute with the wrong half), and the
// seq-keyed symmetry cache is reset either way so CG admission re-judges
// the new base.
func (s *Server) recompactEntry(e *Entry) error {
	defer e.recompacting.Store(false)

	// Phase 1: capture.
	e.tuneMu.Lock()
	l := e.log
	if l == nil || l.Seq() == 0 {
		e.tuneMu.Unlock()
		return nil
	}
	seq := l.Seq()
	folded := spmv.NewMatrix(e.rows, e.cols)
	l.Fold(func(i, j int32, v float64) { _ = folded.Set(int(i), int(j), v) })
	sv := e.cur.Load()
	wasSym := sv.sym
	e.tuneMu.Unlock()

	// Phase 2: compile off-lock.
	var def *spmv.Operator
	demoted := false
	if wasSym {
		if folded.IsSymmetric() {
			op, err := spmv.CompileSymmetricParallel(folded, s.cfg.Threads)
			if err != nil {
				return fmt.Errorf("server: recompact %q: %w", e.ID, err)
			}
			def = op
		} else {
			// The deltas broke symmetry: the folded matrix must leave
			// SymCSR storage or the symmetric kernel would mirror entries
			// the matrix no longer has.
			demoted = true
		}
	}
	if def == nil {
		op, err := spmv.CompileParallel(folded, spmv.NaiveOptions(), s.cfg.Threads, 1)
		if err != nil {
			return fmt.Errorf("server: recompact %q: %w", e.ID, err)
		}
		def = op
	}
	nsv, err := s.newServing(def)
	if err != nil {
		return fmt.Errorf("server: recompact %q: %w", e.ID, err)
	}

	// Phase 3: promote.
	e.tuneMu.Lock()
	sv = e.cur.Load() //spmv:reload-ok a re-tune may have promoted during phase 2; the fold must stack on the latest generation
	tail := l.Tail(seq)
	var newLog *delta.Log
	var ov *delta.Overlay
	var ovBytes int64
	if len(tail) > 0 {
		// Patches landed while we compiled: replay them over the folded
		// base so not one op is lost. They validated against the same
		// dimensions, so Apply cannot fail.
		newLog = delta.NewLog(e.rows, e.cols, func(yield func(i, j int32, v float64)) {
			folded.Entries(func(i, j int, v float64) { yield(int32(i), int32(j), v) })
		})
		if err := newLog.Apply(tail); err != nil {
			e.tuneMu.Unlock()
			return fmt.Errorf("server: recompact %q: replay: %w", e.ID, err)
		}
		ov = newLog.Overlay()
		ovBytes = traffic.OverlaySweepBytes(ov.DirtyRows(), ov.Entries())
	}
	// The snapshot carries a fresh roofline accumulator, like any
	// promotion: the folded generation's achieved bandwidth is measured on
	// its own sweeps.
	nsv.gen, nsv.ov, nsv.ovBytes = sv.gen+1, ov, ovBytes
	// Swap the base and reset the operator caches to exactly the folded
	// operator under its canonical key — the old encodings serve a matrix
	// that no longer exists, and the re-tuner's eviction logic (drop)
	// keys off these maps.
	e.mu.Lock()
	e.m = folded
	e.nnz.Store(folded.NNZ())
	e.ops = make(map[opKey]*spmv.Operator)
	e.symOps = make(map[int]*spmv.Operator)
	if nsv.sym {
		e.symOps[s.cfg.Threads] = def
	} else {
		e.ops[*nsv.cacheKey] = def
	}
	e.mu.Unlock()
	e.cur.Store(nsv)
	e.log = newLog // nil when no tail: the next PATCH re-indexes lazily
	// The base changed: CG admission must re-judge symmetry against it.
	e.symMu.Lock()
	e.symChecked = false
	e.symMu.Unlock()
	reason := fmt.Sprintf("folded %d deltas into the base", seq)
	if demoted {
		reason += "; symmetry broken, demoted to general storage"
	}
	e.events = append(e.events, TuningEvent{
		Time: time.Now(), Decision: "recompacted", Reason: reason,
		Kernel: def.KernelName(), Generation: nsv.gen,
	})
	if len(e.events) > maxTuningEvents {
		e.events = e.events[len(e.events)-maxTuningEvents:]
	}
	e.tuneMu.Unlock()

	s.st.recompactions.Add(1)
	if demoted {
		s.st.symDemotions.Add(1)
	}
	s.log.Info("recompacted",
		slog.String("matrix", e.ID), slog.Int("deltas", seq),
		slog.Int("generation", nsv.gen), slog.String("kernel", def.KernelName()),
		slog.Bool("demoted", demoted), slog.Int("replayed", len(tail)))
	return nil
}

// DeleteMatrix tears a matrix down: the id leaves the registry first (new
// requests see ErrUnknownMatrix), then its resident solver sessions are
// cancelled and drained, its batchers purged, and its operator caches
// released. Sweeps already in flight finish safely on the immutable
// snapshots they loaded. Cluster-sharded matrices additionally
// unregister their band registrations on the members, best-effort.
func (s *Server) DeleteMatrix(id string) (DeleteResult, error) {
	e, err := s.reg.Get(id)
	if err != nil {
		if s.cluster != nil && s.cluster.Has(id) {
			return s.clusterDelete(id)
		}
		return DeleteResult{}, err
	}
	if !s.reg.remove(id) {
		// Lost the race with a concurrent DELETE.
		return DeleteResult{}, fmt.Errorf("%w %q", ErrUnknownMatrix, id)
	}
	res := DeleteResult{ID: id}
	res.CancelledSessions = s.cancelMatrixSessions(id)
	s.purgeBatchers(id)
	// Release the operator caches: in-flight work holds what it needs via
	// its snapshot; these references would otherwise pin matrix-sized
	// encodings until GC finds the entry unreachable.
	e.mu.Lock()
	e.ops = nil
	e.symOps = nil
	e.mu.Unlock()
	s.st.deletes.Add(1)
	s.log.Info("matrix deleted", slog.String("matrix", id),
		slog.Int("cancelled_sessions", res.CancelledSessions))
	return res, nil
}

// clusterDelete tears down a cluster-sharded matrix: coordinator-side
// solver sessions cancel and drain like local ones, then the coordinator
// unregisters the matrix and its member band registrations.
func (s *Server) clusterDelete(id string) (DeleteResult, error) {
	bands, err := s.cluster.Unregister(id)
	if err != nil {
		return DeleteResult{}, err
	}
	res := DeleteResult{ID: id, Sharded: true, Bands: bands}
	res.CancelledSessions = s.cancelMatrixSessions(id)
	s.purgeBatchers(id)
	s.st.deletes.Add(1)
	s.log.Info("matrix deleted", slog.String("matrix", id), slog.Bool("sharded", true),
		slog.Int("bands", bands), slog.Int("cancelled_sessions", res.CancelledSessions))
	return res, nil
}

// cancelMatrixSessions cancels every resident solver session bound to the
// matrix and waits for their goroutines to exit, returning the count. The
// wait matters for local teardown: a drained session schedules no further
// sweeps against the deleted id.
func (s *Server) cancelMatrixSessions(id string) int {
	s.sessMu.Lock()
	var victims []*solveSession
	for sid, ss := range s.sessions {
		if ss.matrixID == id {
			victims = append(victims, ss)
			delete(s.sessions, sid)
		}
	}
	s.sessMu.Unlock()
	for _, ss := range victims {
		ss.markCancelled(s.finishSeq())
	}
	for _, ss := range victims {
		<-ss.done
	}
	return len(victims)
}

// purgeBatchers drops the matrix's batchers across all SLO classes.
// Batches already formed hold their own references and complete.
func (s *Server) purgeBatchers(id string) {
	s.mu.Lock()
	for key := range s.batchers {
		if key.id == id {
			delete(s.batchers, key)
		}
	}
	s.mu.Unlock()
}
