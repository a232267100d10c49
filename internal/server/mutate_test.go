package server

import (
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	spmv "repro"
	"repro/internal/matrix/delta"
)

// mutDeltas builds a deterministic mixed set/add/del batch. Dels and adds
// target the dense diagonal testMatrix guarantees, so a fair share of
// them hit existing entries.
func mutDeltas(rng *rand.Rand, rows, cols, n int) []Delta {
	ds := make([]Delta, 0, n)
	for k := 0; k < n; k++ {
		i, j := int32(rng.Intn(rows)), int32(rng.Intn(cols))
		switch rng.Intn(6) {
		case 0, 1:
			ds = append(ds, Delta{Op: "set", Row: i, Col: j, Val: rng.NormFloat64()})
		case 2, 3:
			ds = append(ds, Delta{Op: "add", Row: i, Col: j, Val: rng.NormFloat64()})
		case 4:
			d := int32(rng.Intn(min(rows, cols)))
			ds = append(ds, Delta{Op: "add", Row: d, Col: d, Val: rng.NormFloat64()})
		default:
			d := int32(rng.Intn(min(rows, cols)))
			ds = append(ds, Delta{Op: "del", Row: d, Col: d})
		}
	}
	return ds
}

// rebuildWithDeltas applies the deltas to a copy of m from scratch,
// through the same delta log the server uses, and returns the folded
// matrix — the rebuild the overlay path must match bit for bit.
func rebuildWithDeltas(t *testing.T, m *spmv.Matrix, deltas []Delta) *spmv.Matrix {
	t.Helper()
	rows, cols := m.Dims()
	l := delta.NewLog(rows, cols, func(yield func(i, j int32, v float64)) {
		m.Entries(func(i, j int, v float64) { yield(int32(i), int32(j), v) })
	})
	ops, err := parseDeltas(deltas)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Apply(ops); err != nil {
		t.Fatal(err)
	}
	folded := spmv.NewMatrix(rows, cols)
	l.Fold(func(i, j int32, v float64) {
		if err := folded.Set(int(i), int(j), v); err != nil {
			t.Fatal(err)
		}
	})
	return folded
}

func mustBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: y[%d] = %x, want %x (not bitwise identical)",
				what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestPatchMatchesRebuildBitwise: a patched matrix must serve the same
// bits as a from-scratch rebuild registered fresh, across accumulated
// batches.
func TestPatchMatchesRebuildBitwise(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecompactThreshold = -1 // keep the log live; recompaction has its own tests
	s := New(cfg)
	defer s.Close()
	m := testMatrix(t, 180, 180, 1500, 3)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	x := testVector(180, 9)

	var all []Delta
	for batch := 0; batch < 3; batch++ {
		ds := mutDeltas(rng, 180, 180, 40)
		all = append(all, ds...)
		res, err := s.Patch("a", ds)
		if err != nil {
			t.Fatal(err)
		}
		if res.Applied != len(ds) || res.Seq != len(all) {
			t.Fatalf("batch %d: applied=%d seq=%d, want %d/%d", batch, res.Applied, res.Seq, len(ds), len(all))
		}
		if res.DirtyRows == 0 || res.OverlayBytes <= 0 {
			t.Fatalf("batch %d: empty overlay in result: %+v", batch, res)
		}

		got, err := s.Mul("a", x)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt := rebuildWithDeltas(t, m, all)
		fresh := New(DefaultConfig())
		if _, err := fresh.Register("b", "rebuild", rebuilt); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Mul("b", x)
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		mustBitwise(t, "patched vs rebuild", got, want)
	}

	infos := s.Matrices()
	if len(infos) != 1 || infos[0].DeltaSeq != len(all) || infos[0].OverlayRows == 0 {
		t.Fatalf("info does not reflect the log: %+v", infos)
	}
	if st := s.Stats(); st.Patches != 3 || st.DeltasApplied != uint64(len(all)) {
		t.Fatalf("stats: patches=%d deltas=%d, want 3/%d", st.Patches, st.DeltasApplied, len(all))
	}
}

// TestPatchAtomicAndValidated: bad batches reject wholesale and leave
// the served bits untouched.
func TestPatchAtomicAndValidated(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	m := testMatrix(t, 60, 60, 400, 4)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	x := testVector(60, 5)
	before, err := s.Mul("a", x)
	if err != nil {
		t.Fatal(err)
	}

	bad := [][]Delta{
		{},
		{{Op: "replace", Row: 1, Col: 1, Val: 2}},
		{{Op: "set", Row: 1, Col: 1, Val: 2}, {Op: "set", Row: 60, Col: 0, Val: 1}},
		{{Op: "set", Row: 1, Col: 1, Val: 2}, {Op: "add", Row: 0, Col: -1, Val: 1}},
		{{Op: "set", Row: 1, Col: 1, Val: math.NaN()}},
		{{Op: "add", Row: 1, Col: 1, Val: math.Inf(1)}},
	}
	for n, batch := range bad {
		if _, err := s.Patch("a", batch); err == nil {
			t.Fatalf("bad batch %d accepted", n)
		}
	}
	after, err := s.Mul("a", x)
	if err != nil {
		t.Fatal(err)
	}
	mustBitwise(t, "after rejected batches", after, before)
	if infos := s.Matrices(); infos[0].DeltaSeq != 0 {
		t.Fatalf("rejected batches advanced the log to seq %d", infos[0].DeltaSeq)
	}
	if _, err := s.Patch("ghost", []Delta{{Op: "set", Row: 0, Col: 0, Val: 1}}); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("unknown matrix: got %v, want ErrUnknownMatrix", err)
	}
}

// TestPatchShardedRejected: cluster-sharded matrices are immutable.
func TestPatchShardedRejected(t *testing.T) {
	c, _ := newLocalCluster(t, 2, 1)
	front := New(DefaultConfig())
	defer front.Close()
	front.AttachCluster(c)
	m := testMatrix(t, 120, 120, 900, 6)
	if _, err := c.RegisterSharded("sm", "test", m, 2); err != nil {
		t.Fatal(err)
	}
	_, err := front.Patch("sm", []Delta{{Op: "set", Row: 0, Col: 0, Val: 1}})
	if !errors.Is(err, ErrShardedImmutable) {
		t.Fatalf("sharded patch: got %v, want ErrShardedImmutable", err)
	}
}

// TestRecompactionPromotes: folding the log bumps the generation, clears
// the overlay, and moves no bits.
func TestRecompactionPromotes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecompactThreshold = -1 // drive recompaction explicitly
	s := New(cfg)
	defer s.Close()
	m := testMatrix(t, 150, 150, 1200, 7)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	if _, err := s.Patch("a", mutDeltas(rng, 150, 150, 80)); err != nil {
		t.Fatal(err)
	}
	x := testVector(150, 11)
	before, err := s.Mul("a", x)
	if err != nil {
		t.Fatal(err)
	}

	e, err := s.Registry().Get("a")
	if err != nil {
		t.Fatal(err)
	}
	gen0 := e.cur.Load().gen
	nnzBefore := e.NNZ()
	if err := s.Recompact("a"); err != nil {
		t.Fatal(err)
	}
	sv := e.cur.Load()
	if sv.gen != gen0+1 {
		t.Fatalf("generation %d after recompaction, want %d", sv.gen, gen0+1)
	}
	if sv.ov != nil || sv.ovBytes != 0 {
		t.Fatalf("overlay survived recompaction: %+v", sv.ovBytes)
	}
	if e.NNZ() == nnzBefore {
		t.Fatalf("nnz unchanged at %d; dels/sets should have moved it", nnzBefore)
	}
	after, err := s.Mul("a", x)
	if err != nil {
		t.Fatal(err)
	}
	mustBitwise(t, "across recompaction", after, before)
	if infos := s.Matrices(); infos[0].DeltaSeq != 0 || infos[0].OverlayRows != 0 {
		t.Fatalf("info still shows a log after recompaction: %+v", infos[0])
	}
	if st := s.Stats(); st.Recompactions != 1 {
		t.Fatalf("stats.Recompactions = %d, want 1", st.Recompactions)
	}

	// Nothing pending: a second recompaction is a no-op.
	if err := s.Recompact("a"); err != nil {
		t.Fatal(err)
	}
	if g := e.cur.Load().gen; g != gen0+1 {
		t.Fatalf("no-op recompaction moved the generation to %d", g)
	}

	// Patch again after the fold: the log re-indexes over the new base.
	more := mutDeltas(rng, 150, 150, 30)
	res, err := s.Patch("a", more)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != len(more) || res.Generation != gen0+1 {
		t.Fatalf("post-fold patch: seq=%d gen=%d, want %d/%d", res.Seq, res.Generation, len(more), gen0+1)
	}
}

// TestRecompactionAutoTrigger: a patch that pushes the overlay stream
// past the threshold share of the base stream kicks off the background
// recompactor.
func TestRecompactionAutoTrigger(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecompactThreshold = 1e-9 // any overlay at all trips it
	s := New(cfg)
	defer s.Close()
	m := testMatrix(t, 100, 100, 800, 12)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Patch("a", []Delta{{Op: "set", Row: 3, Col: 4, Val: 2.5}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.Recompactions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background recompaction never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	infos := s.Matrices()
	if infos[0].DeltaSeq != 0 || infos[0].Generation == 0 {
		t.Fatalf("recompaction did not fold: %+v", infos[0])
	}
}

// TestRecompactionSymmetry: a symmetric-served matrix re-verifies
// symmetry at recompaction — preserved when the deltas kept it, demoted
// to general storage when they broke it.
func TestRecompactionSymmetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecompactThreshold = -1
	sym, err := spmv.Symmetrize(testMatrix(t, 90, 90, 700, 13))
	if err != nil {
		t.Fatal(err)
	}
	x := testVector(90, 14)

	t.Run("preserved", func(t *testing.T) {
		s := New(cfg)
		defer s.Close()
		if _, err := s.Register("s", "sym", sym); err != nil {
			t.Fatal(err)
		}
		e, _ := s.Registry().Get("s")
		if !e.cur.Load().sym {
			t.Skip("auto-symmetric declined SymCSR for this matrix")
		}
		// A symmetric pair of deltas keeps A == Aᵀ.
		batch := []Delta{
			{Op: "set", Row: 2, Col: 7, Val: 1.25},
			{Op: "set", Row: 7, Col: 2, Val: 1.25},
		}
		if _, err := s.Patch("s", batch); err != nil {
			t.Fatal(err)
		}
		if !e.isSymmetricMatrix() {
			t.Fatal("symmetric pair of deltas judged asymmetric")
		}
		if err := s.Recompact("s"); err != nil {
			t.Fatal(err)
		}
		if !e.cur.Load().sym {
			t.Fatal("symmetry-preserving recompaction demoted the entry")
		}
		if st := s.Stats(); st.SymDemotions != 0 {
			t.Fatalf("SymDemotions = %d, want 0", st.SymDemotions)
		}
	})

	t.Run("demoted", func(t *testing.T) {
		s := New(cfg)
		defer s.Close()
		if _, err := s.Register("s", "sym", sym); err != nil {
			t.Fatal(err)
		}
		e, _ := s.Registry().Get("s")
		if !e.cur.Load().sym {
			t.Skip("auto-symmetric declined SymCSR for this matrix")
		}
		// One one-sided set breaks symmetry.
		if _, err := s.Patch("s", []Delta{{Op: "set", Row: 0, Col: 5, Val: 3.5}}); err != nil {
			t.Fatal(err)
		}
		if e.isSymmetricMatrix() {
			t.Fatal("asymmetric delta still judged symmetric (stale cache)")
		}
		// Value correctness while still serving from SymCSR + overlay.
		got, err := s.Mul("s", x)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt := rebuildWithDeltas(t, sym, []Delta{{Op: "set", Row: 0, Col: 5, Val: 3.5}})
		want := reference(t, rebuilt, x)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("sym-served overlay off by %g", d)
		}
		if err := s.Recompact("s"); err != nil {
			t.Fatal(err)
		}
		sv := e.cur.Load()
		if sv.sym {
			t.Fatal("symmetry-breaking recompaction kept SymCSR storage")
		}
		if st := s.Stats(); st.SymDemotions != 1 {
			t.Fatalf("SymDemotions = %d, want 1", st.SymDemotions)
		}
		// Post-demotion serving matches the general rebuild bitwise.
		got, err = s.Mul("s", x)
		if err != nil {
			t.Fatal(err)
		}
		fresh := New(DefaultConfig())
		general := false
		if _, err := fresh.RegisterOpts("g", "rebuild", rebuilt, RegisterOptions{Symmetric: &general}); err != nil {
			t.Fatal(err)
		}
		want, err = fresh.Mul("g", x)
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		mustBitwise(t, "demoted vs general rebuild", got, want)
	})
}

// TestDeleteMatrixTeardown: DELETE cancels and drains resident solver
// sessions, evicts the caches, and frees the id for re-registration.
func TestDeleteMatrixTeardown(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	m := testMatrix(t, 200, 200, 2000, 15)
	if _, err := s.Register("a", "test", m); err != nil {
		t.Fatal(err)
	}
	st, err := s.Solve("a", SolveRequest{Method: "power", MaxIters: MaxSolveIters})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.DeleteMatrix("a")
	if err != nil {
		t.Fatal(err)
	}
	if res.CancelledSessions != 1 {
		t.Fatalf("cancelled %d sessions, want 1", res.CancelledSessions)
	}
	if _, err := s.Mul("a", testVector(200, 16)); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("Mul after delete: got %v, want ErrUnknownMatrix", err)
	}
	if _, err := s.SolveStatus(st.SID, 0); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("session survived delete: %v", err)
	}
	if _, err := s.DeleteMatrix("a"); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("double delete: got %v, want ErrUnknownMatrix", err)
	}
	if stats := s.Stats(); stats.Deletes != 1 {
		t.Fatalf("stats.Deletes = %d, want 1", stats.Deletes)
	}
	// The id is free again.
	if _, err := s.Register("a", "again", testMatrix(t, 50, 50, 200, 17)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mul("a", testVector(50, 18)); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteMatrixSharded: a sharded DELETE removes the coordinator
// entry and unregisters the member band registrations.
func TestDeleteMatrixSharded(t *testing.T) {
	c, members := newLocalCluster(t, 3, 1)
	front := New(DefaultConfig())
	defer front.Close()
	front.AttachCluster(c)
	m := testMatrix(t, 240, 240, 2400, 19)
	if _, err := c.RegisterSharded("sm", "test", m, 3); err != nil {
		t.Fatal(err)
	}
	res, err := front.DeleteMatrix("sm")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sharded || res.Bands != 3 {
		t.Fatalf("sharded delete: %+v, want sharded with 3 bands", res)
	}
	if c.Has("sm") {
		t.Fatal("coordinator still routes the deleted matrix")
	}
	if _, err := front.MulOpts("sm", testVector(240, 20), MulOptions{}); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("sharded Mul after delete: got %v, want ErrUnknownMatrix", err)
	}
	for i, member := range members {
		if list := member.Matrices(); len(list) != 0 {
			t.Fatalf("member %d still holds %d band(s)", i, len(list))
		}
	}
}

// TestMethodNotAllowed: a known path hit with the wrong method answers
// 405 with an Allow header through the uniform envelope, and the HTTP
// client maps it back to the ErrMethodNotAllowed sentinel. Unknown paths
// still 404.
func TestMethodNotAllowed(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(method, path string, wantStatus int, wantAllow string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d, want %d", method, path, r.StatusCode, wantStatus)
		}
		if allow := r.Header.Get("Allow"); allow != wantAllow {
			t.Fatalf("%s %s: Allow %q, want %q", method, path, allow, wantAllow)
		}
	}
	check(http.MethodGet, "/v1/matrices/abc/mul", http.StatusMethodNotAllowed, "POST")
	check(http.MethodPut, "/v1/matrices", http.StatusMethodNotAllowed, "POST, GET")
	check(http.MethodPost, "/v1/matrices/abc", http.StatusMethodNotAllowed, "PATCH, DELETE")
	check(http.MethodPost, "/v1/healthz", http.StatusMethodNotAllowed, "GET")
	check(http.MethodGet, "/v1/nope", http.StatusNotFound, "")
	check(http.MethodGet, "/v1/matrices/abc/mul/extra", http.StatusNotFound, "")

	hc := NewHTTPClient(ts.URL, nil)
	if err := hc.do(http.MethodPut, "/v1/matrices", nil, nil); !errors.Is(err, ErrMethodNotAllowed) {
		t.Fatalf("client sentinel: got %v, want ErrMethodNotAllowed", err)
	}
}

// TestPatchDeleteHTTP drives the full mutation lifecycle over the wire:
// register, patch (bits match the in-process rebuild), then delete.
func TestPatchDeleteHTTP(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hc := NewHTTPClient(ts.URL, nil)

	if _, err := hc.RegisterSuite("a", "LP", 0.02, 21); err != nil {
		t.Fatal(err)
	}
	infos := s.Matrices()
	rows, cols := infos[0].Rows, infos[0].Cols
	deltas := []Delta{
		{Op: "set", Row: 0, Col: 1, Val: 2.5},
		{Op: "add", Row: int32(rows - 1), Col: int32(cols - 1), Val: -1.25},
		{Op: "del", Row: 0, Col: 0},
	}
	res, err := hc.Patch("a", deltas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 3 || res.Applied != 3 {
		t.Fatalf("wire patch: %+v", res)
	}
	x := testVector(cols, 22)
	got, err := hc.MulOpts("a", x, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Mul("a", x)
	if err != nil {
		t.Fatal(err)
	}
	mustBitwise(t, "wire vs in-process", got, want)

	if _, err := hc.Patch("ghost", deltas); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("wire patch unknown: got %v, want ErrUnknownMatrix", err)
	}
	dres, err := hc.DeleteMatrix("a")
	if err != nil {
		t.Fatal(err)
	}
	if dres.ID != "a" {
		t.Fatalf("wire delete: %+v", dres)
	}
	if _, err := hc.DeleteMatrix("a"); !errors.Is(err, ErrUnknownMatrix) {
		t.Fatalf("wire double delete: got %v, want ErrUnknownMatrix", err)
	}
}

// TestShardedPatchHTTP: the wire client gets the ErrShardedImmutable
// sentinel back from a 409 on a sharded target.
func TestShardedPatchHTTP(t *testing.T) {
	c, _ := newLocalCluster(t, 2, 1)
	front := New(DefaultConfig())
	defer front.Close()
	front.AttachCluster(c)
	if _, err := c.RegisterSharded("sm", "test", testMatrix(t, 100, 100, 800, 23), 2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()
	hc := NewHTTPClient(ts.URL, nil)
	_, err := hc.Patch("sm", []Delta{{Op: "set", Row: 0, Col: 0, Val: 1}})
	if !errors.Is(err, ErrShardedImmutable) {
		t.Fatalf("wire sharded patch: got %v, want ErrShardedImmutable", err)
	}
}

// TestMidSolveRecompactionTrajectory: recompaction landing mid-solve
// must not move a single trajectory bit — the folded base serves the
// same bits the overlay did, so a solve that crosses the promotion
// matches one that never recompacts, residual history and solution both.
func TestMidSolveRecompactionTrajectory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecompactThreshold = -1
	m := testMatrix(t, 160, 160, 1300, 24)
	rng := rand.New(rand.NewSource(25))
	deltas := mutDeltas(rng, 160, 160, 60)

	run := func(recompactMidway bool) SolveStatus {
		s := New(cfg)
		defer s.Close()
		if _, err := s.Register("a", "test", m); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Patch("a", deltas); err != nil {
			t.Fatal(err)
		}
		st, err := s.Solve("a", SolveRequest{Method: "power", MaxIters: 40})
		if err != nil {
			t.Fatal(err)
		}
		if recompactMidway {
			if err := s.Recompact("a"); err != nil {
				t.Fatal(err)
			}
		}
		final, err := s.SolveStatus(st.SID, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if final.State == stateRunning || final.State == stateFailed {
			t.Fatalf("session ended %q (%s)", final.State, final.Error)
		}
		return final
	}

	plain := run(false)
	crossed := run(true)
	mustBitwise(t, "residual history", crossed.History, plain.History)
	mustBitwise(t, "solution", crossed.X, plain.X)
	if math.Float64bits(crossed.Eigenvalue) != math.Float64bits(plain.Eigenvalue) {
		t.Fatalf("eigenvalue %x, want %x", math.Float64bits(crossed.Eigenvalue), math.Float64bits(plain.Eigenvalue))
	}
}

// TestMutationRaceHammer drives patches, sweeps, solves, recompactions,
// and a final delete concurrently — the race detector is the assertion.
func TestMutationRaceHammer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecompactThreshold = 0.01 // recompact aggressively under the hammer
	s := New(cfg)
	defer s.Close()
	n := 120
	if _, err := s.Register("a", "test", testMatrix(t, n, n, 900, 26)); err != nil {
		t.Fatal(err)
	}
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < iters; k++ {
				if _, err := s.Patch("a", mutDeltas(rng, n, n, 6)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(100 + g))
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			x := testVector(n, seed)
			for k := 0; k < iters; k++ {
				if _, err := s.Mul("a", x); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(200 + g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < iters/4; k++ {
			// "already in flight" races with the background recompactor
			// and is expected; anything else is not.
			if err := s.Recompact("a"); err != nil && !errors.Is(err, ErrUnknownMatrix) {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 4; k++ {
			st, err := s.Solve("a", SolveRequest{Method: "power", MaxIters: 25})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := s.SolveStatus(st.SID, 10*time.Second); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	// Everything drained: the entry still serves, then tears down cleanly.
	if _, err := s.Mul("a", testVector(n, 27)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteMatrix("a"); err != nil {
		t.Fatal(err)
	}
}
