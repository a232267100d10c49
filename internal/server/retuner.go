// Online workload-aware re-tuning. Williams et al. show the best SpMV
// format/blocking choice depends on the workload as well as the matrix —
// the reason OSKI-style systems keep re-tuning as usage evolves. The
// serving layer registers each matrix on plain CSR32 with a width-1
// guess; the re-tuner closes the loop:
//
//  1. Observe: every executed sweep records its fused width in the
//     entry's workload tracker (fused-width histogram + a ring of recent
//     sweep shapes).
//  2. Detect drift: a background scanner compares the request-weighted
//     median width against the width the serving operator was tuned for;
//     past Config.RetuneDrift (and RetuneMinRequests of fresh signal) the
//     entry is re-evaluated.
//  3. Re-tune off the hot path: the scanner's goroutine re-runs the §4.2
//     tuner with workload-derived options — VectorWidth from the
//     histogram median.
//  4. Shadow benchmark: each candidate is scored on the captured sample
//     of real request shapes with the traffic model — modeled DRAM bytes
//     per request, the same currency as the paper's §5.1 bound — against
//     the incumbent's serving traffic.
//  5. Promote atomically: a winning candidate replaces the entry's
//     serving snapshot copy-on-write; in-flight sweeps drain on the old
//     operator while new batches load the new one. Decisions (promotions
//     and rejections) land in a bounded per-entry event log exposed at
//     GET /v1/matrices/{id}/tuning and in the /v1/stats counters.
//
// Determinism: the candidate search is restricted to the CSR family
// (row-partitioned, any index width), whose wide kernels are bit-identical
// to the default CSR multi-RHS path at every width — so a promotion can
// shrink the fused matrix stream (e.g. 16-bit indices) without changing a
// single response bit.
package server

import (
	"fmt"
	"time"

	spmv "repro"
	"repro/internal/obs"
)

// retunePromoteMargin is the minimum modeled bytes-per-request improvement
// a candidate must show before it replaces the incumbent: promotion churn
// has a cost (a compiled encoding, a warm-up), so ties go to the sitter.
const retunePromoteMargin = 0.02

// maxTuningEvents bounds each entry's decision log.
const maxTuningEvents = 32

// TuningEvent is one re-tune decision for a matrix.
type TuningEvent struct {
	Time     time.Time `json:"time"`
	Decision string    `json:"decision"` // "promoted" or "rejected"
	Reason   string    `json:"reason,omitempty"`
	// ObservedWidth is the request-weighted median fused width that
	// triggered the evaluation; Drift its distance from the tuned width.
	ObservedWidth int     `json:"observed_width"`
	Drift         float64 `json:"drift"`
	// Modeled DRAM bytes per request on the captured request sample —
	// the shadow benchmark's scores.
	IncumbentBytesPerRequest float64 `json:"incumbent_bytes_per_request"`
	CandidateBytesPerRequest float64 `json:"candidate_bytes_per_request"`
	// Kernel names the candidate's compiled kernel; Generation is the
	// serving generation after the decision (unchanged on rejection).
	Kernel     string `json:"kernel"`
	Generation int    `json:"generation"`
}

// TuningReport is GET /v1/matrices/{id}/tuning: the live tuner state of
// one registered matrix.
type TuningReport struct {
	ID         string `json:"id"`
	Generation int    `json:"generation"`
	Kernel     string `json:"kernel"`
	Symmetric  bool   `json:"symmetric"`
	// Wide reports that fused sweeps stream the tuned encoding (wide
	// kernels) rather than the CSR fallback.
	Wide       bool `json:"wide"`
	TunedWidth int  `json:"tuned_width"`
	// Observed workload since registration.
	ObservedMedianWidth int     `json:"observed_median_width"`
	ObservedRequests    uint64  `json:"observed_requests"`
	ObservedSweeps      uint64  `json:"observed_sweeps"`
	Drift               float64 `json:"drift"`
	// MatrixBytes is the modeled per-sweep matrix stream as served.
	MatrixBytes int64         `json:"matrix_bytes"`
	Events      []TuningEvent `json:"events,omitempty"`

	// Measured is the roofline attribution of the current serving
	// generation: measured sweep wall time joined with the traffic model's
	// bytes into achieved GB/s and a ratio against RooflineGBs, the
	// configured sustained-bandwidth reference. It resets on promotion —
	// each generation's bandwidth is measured on its own sweeps.
	Measured    *obs.RooflineStats `json:"measured,omitempty"`
	RooflineGBs float64            `json:"roofline_gbs,omitempty"`
}

// Tuning returns the re-tuner's view of one registered matrix.
func (s *Server) Tuning(id string) (TuningReport, error) {
	e, err := s.reg.Get(id)
	if err != nil {
		return TuningReport{}, err
	}
	rep := TuningReport{
		ID:                  e.ID,
		ObservedMedianWidth: e.work.medianWidth(),
		ObservedRequests:    e.work.requests.Load(),
		ObservedSweeps:      e.work.sweeps.Load(),
	}
	if sv := e.cur.Load(); sv != nil {
		rep.Generation = sv.gen
		rep.Kernel = sv.op.KernelName()
		rep.Symmetric = sv.sym
		rep.Wide = sv.wide
		rep.TunedWidth = sv.width
		rep.MatrixBytes = sv.matrixBytes
		rep.Drift = widthDrift(sv.width, rep.ObservedMedianWidth)
		measured := sv.roof.Stats(s.cfg.RooflineGBs)
		rep.Measured = &measured
		rep.RooflineGBs = s.cfg.RooflineGBs
	}
	e.tuneMu.Lock()
	rep.Events = append([]TuningEvent(nil), e.events...)
	e.tuneMu.Unlock()
	return rep, nil
}

// retuneLoop is the background scanner started by New when
// Config.RetuneInterval > 0.
func (s *Server) retuneLoop() {
	defer close(s.retuneDone)
	ticker := time.NewTicker(s.cfg.RetuneInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.retuneStop:
			return
		case <-ticker.C:
			s.RetuneOnce()
		}
	}
}

// RetuneOnce synchronously evaluates every registered matrix for workload
// drift and promotes winning candidates, returning the number of
// promotions. It is what each background scan runs; tests and demos call
// it directly to re-tune without waiting out the interval.
func (s *Server) RetuneOnce() int {
	promoted := 0
	for _, e := range s.reg.List() {
		if s.evaluateEntry(e) {
			promoted++
		}
	}
	return promoted
}

// retuneCandidate is one compiled contender in a shadow benchmark.
type retuneCandidate struct {
	op      *spmv.Operator
	traffic spmv.TrafficSummary // per-sweep traffic as it would be served
	score   float64             // modeled bytes per request on the sample
	// cacheKey locates op in the entry's general-operator cache so a
	// loser can be evicted instead of holding a matrix-sized encoding.
	cacheKey *opKey
}

// evaluateEntry runs steps 2-5 for one entry, reporting whether a
// promotion happened. Evaluations of the same entry are serialized by
// tuneMu — the snapshot is loaded under it, so concurrent RetuneOnce
// calls and the background scanner always evaluate (and replace) the
// current generation, never a stale one. The serving hot path is never
// blocked (it only loads e.cur).
func (s *Server) evaluateEntry(e *Entry) bool {
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	sv := e.cur.Load()
	if sv == nil {
		return false
	}
	req := e.work.requests.Load()
	if req-e.lastEvalRequests < uint64(s.cfg.RetuneMinRequests) {
		return false
	}
	med := e.work.medianWidth()
	drift := widthDrift(sv.width, med)
	if drift < s.cfg.RetuneDrift {
		return false
	}
	if med == e.lastRejectedWidth {
		// A steadily drifted workload whose candidate already lost would
		// otherwise recompile and re-reject the identical candidate on
		// every pacing quantum; wait for the median itself to move.
		return false
	}
	s.st.retuneEvals.Add(1)
	// Either way this evaluation resolves, wait for fresh signal before
	// the next one: without this, a rejected candidate would be rebuilt
	// and re-rejected on every scan of a steadily drifted workload.
	e.lastEvalRequests = req

	sample := e.work.sample()
	if len(sample) == 0 {
		sample = []int{med}
	}
	incumbentScore := sv.summary().BlendedPerRequest(sample)
	best := s.buildCandidate(e, med, sample)
	// Evict a contender's cached encoding — unless it is (or became) the
	// serving operator — so losers don't hold matrix-sized structures for
	// the entry's lifetime (the same rule prepare applies to the
	// auto-symmetric comparison's loser).
	drop := func(op *spmv.Operator, key *opKey) {
		// The serving pointer is deliberately re-read: after a promotion's
		// Store below, this check must see the *new* serving operator — the
		// sv loaded at evaluation start would spare the demoted incumbent.
		if op == nil || op == e.cur.Load().op { //spmv:reload-ok must observe the post-promotion snapshot
			return
		}
		if key != nil {
			e.dropOperator(key.opts, key.threads)
		} else {
			e.dropSymOperator(s.cfg.Threads)
		}
	}
	ev := TuningEvent{
		Time: time.Now(), ObservedWidth: med, Drift: drift,
		IncumbentBytesPerRequest: incumbentScore,
		Generation:               sv.gen,
	}
	switch {
	case best == nil:
		ev.Decision = "rejected"
		ev.Reason = "no viable candidate encoding"
		ev.Kernel = sv.op.KernelName()
	case best.op == sv.op:
		ev.Decision = "rejected"
		ev.Reason = "candidate is the incumbent"
		ev.Kernel = sv.op.KernelName()
		ev.CandidateBytesPerRequest = best.score
	case best.score < incumbentScore*(1-retunePromoteMargin):
		nsv := &serving{
			op: best.op, wide: true,
			width: med, gen: sv.gen + 1,
			matrixBytes: best.traffic.MatrixBytes,
			sourceBytes: best.traffic.SourceBytes,
			destBytes:   best.traffic.DestBytes,
			cacheKey:    best.cacheKey,
			// The overlay rides along: a re-tune changes how the BASE is
			// served, not the pending deltas, and dropping them here would
			// silently revert the matrix. (Recompaction, not promotion, is
			// what retires an overlay.)
			ov:      sv.ov,
			ovBytes: sv.ovBytes,
			// A promotion starts a fresh roofline accumulator: the new
			// generation's achieved bandwidth is measured on its own sweeps.
			roof: new(obs.Roofline),
		}
		e.cur.Store(nsv)
		ev.Decision = "promoted"
		ev.Kernel = best.op.KernelName()
		ev.CandidateBytesPerRequest = best.score
		ev.Generation = nsv.gen
		drop(sv.op, sv.cacheKey) // the demoted incumbent
	default:
		ev.Decision = "rejected"
		ev.Reason = fmt.Sprintf("modeled improvement below the %.0f%% promotion margin", 100*retunePromoteMargin)
		ev.Kernel = best.op.KernelName()
		ev.CandidateBytesPerRequest = best.score
	}
	if best != nil {
		drop(best.op, best.cacheKey) // a rejected candidate
	}
	e.events = append(e.events, ev)
	if len(e.events) > maxTuningEvents {
		e.events = e.events[len(e.events)-maxTuningEvents:]
	}
	if ev.Decision == "promoted" {
		e.lastRejectedWidth = 0
		s.st.retunePromotions.Add(1)
		return true
	}
	e.lastRejectedWidth = med
	s.st.retuneRejections.Add(1)
	return false
}

// buildCandidate compiles the workload-derived contender for an entry —
// the tuner re-run with retuneOptions — scored on the captured sample. Its
// fused sweeps would stream the tuned encoding through the wide kernels,
// so it is scored on that encoding's own traffic. The candidate goes
// through the entry's operator cache (the registry's compile-once
// contract); the evaluation's decision then evicts it if it loses, and
// lastRejectedWidth keeps an unchanged median from recompiling it. nil
// means no viable candidate compiled.
func (s *Server) buildCandidate(e *Entry, width int, sample []int) *retuneCandidate {
	opts := retuneOptions(width)
	op, err := e.Operator(opts, s.cfg.Threads, &s.st)
	if err != nil {
		return nil
	}
	tr, err := op.WideTraffic(spmv.TrafficOptions{})
	if err != nil {
		return nil
	}
	return &retuneCandidate{
		op: op, traffic: tr, score: tr.BlendedPerRequest(sample),
		cacheKey: &opKey{opts: opts, threads: s.cfg.Threads},
	}
}

// retuneOptions derives tuner options from the observed workload: index
// reduction blocked for the observed fused width. The search stays in the
// CSR family (whose wide kernels reproduce the default path's bits at
// every width), so re-tuning trims the fused matrix stream without moving
// a single response bit.
func retuneOptions(width int) spmv.TuneOptions {
	return spmv.TuneOptions{ReduceIndices: true, VectorWidth: width}
}
