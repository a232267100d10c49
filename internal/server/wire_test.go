package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	spmv "repro"
)

// wireVectors returns the wire-parity inputs for m: ordinary randoms;
// randoms salted with ±0, subnormals and math.MaxFloat64; and randoms
// salted with ±Inf and NaN. MaxFloat64 goes in one column whose absolute
// entry sum (duplicate COO entries add) is at most 1, so that y stays
// finite and the JSON tier can carry it.
func wireVectors(t *testing.T, m *spmv.Matrix) (plain, special, nonFinite []float64) {
	t.Helper()
	_, cols := m.Dims()
	colAbs := make([]float64, cols)
	colNNZ := make([]int, cols)
	m.Entries(func(_, j int, v float64) {
		colAbs[j] += math.Abs(v)
		colNNZ[j]++
	})
	big := -1
	for j := range colAbs {
		if colNNZ[j] > 0 && colAbs[j] <= 1 {
			big = j
			break
		}
	}
	if big < 0 {
		t.Fatal("no column with an absolute entry sum of at most 1")
	}
	plain = randVec(cols, 11)
	special = randVec(cols, 12)
	salt := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022 / 3, -0x1p-1030, // subnormal
	}
	for j := range special {
		if j%7 == 0 {
			special[j] = salt[(j/7)%len(salt)]
		}
	}
	special[big] = math.MaxFloat64
	nonFinite = randVec(cols, 13)
	for j := range nonFinite {
		switch j % 5 {
		case 1:
			nonFinite[j] = math.Inf(1)
		case 2:
			nonFinite[j] = math.Inf(-1)
		case 3:
			nonFinite[j] = math.NaN()
		}
	}
	return plain, special, nonFinite
}

// TestWireParity is the wire-encoding axis of the differential harness:
// on the LP twin, a raw JSON POST, the binary HTTPClient and in-process
// MulOpts return bitwise-identical y for ordinary x and for x holding
// ±0, subnormals and MaxFloat64; binary and in-process also agree on x
// holding ±Inf and NaN, which JSON cannot spell.
func TestWireParity(t *testing.T) {
	m, err := spmv.GenerateSuite("LP", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig())
	defer s.Close()
	if _, err := s.Register("lp", "LP", m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	hc := NewHTTPClient(ts.URL, nil)

	plain, special, nonFinite := wireVectors(t, m)
	for name, x := range map[string][]float64{"plain": plain, "special": special} {
		want, err := s.MulOpts("lp", x, MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range want {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("%s: y[%d] = %v; the JSON tier needs a finite y", name, i, v)
			}
		}
		bin, err := hc.MulOpts("lp", x, MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(bin, want) {
			t.Errorf("%s: binary HTTPClient y differs from in-process", name)
		}
		resp := postJSON(t, ts.URL+"/v1/matrices/lp/mul", mulRequest{X: x})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: JSON mul status %d", name, resp.StatusCode)
		}
		if got := decode[mulResponse](t, resp).Y; !sameBits(got, want) {
			t.Errorf("%s: JSON y differs from in-process", name)
		}
	}

	want, err := s.MulOpts("lp", nonFinite, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bin, err := hc.MulOpts("lp", nonFinite, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(bin, want) {
		t.Error("non-finite x: binary HTTPClient y differs from in-process")
	}
	// The same request asking for a JSON reply cannot get one.
	resp, err := http.Post(ts.URL+"/v1/matrices/lp/mul", mimeOctetStream, bytes.NewReader(appendFloats(nil, nonFinite)))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || e.Error.Code != "non_finite_result" {
		t.Errorf("non-finite y as JSON: status %d code %q, want 422 non_finite_result", resp.StatusCode, e.Error.Code)
	}
}

// TestWireShardedGatherParity runs the same inputs through a K=2 sharded
// registration whose members sit behind HTTPTransport: the binary band
// gather must be bitwise equal to single-node serving, non-finite x
// included.
func TestWireShardedGatherParity(t *testing.T) {
	m, err := spmv.GenerateSuite("LP", 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	single := New(DefaultConfig())
	defer single.Close()
	if _, err := single.Register("lp", "LP", m); err != nil {
		t.Fatal(err)
	}
	transports := make([]Transport, 2)
	for i := range transports {
		ms := New(DefaultConfig())
		t.Cleanup(ms.Close)
		mts := httptest.NewServer(ms.Handler())
		t.Cleanup(mts.Close)
		transports[i] = NewHTTPTransport(mts.URL, nil)
	}
	cluster, err := NewCluster(transports, ClusterConfig{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	front := New(DefaultConfig())
	defer front.Close()
	front.AttachCluster(cluster)
	if _, err := cluster.RegisterSharded("lp", "LP", m, 2); err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()
	hc := NewHTTPClient(fts.URL, nil)

	plain, special, nonFinite := wireVectors(t, m)
	for name, x := range map[string][]float64{"plain": plain, "special": special, "non-finite": nonFinite} {
		want, err := single.MulOpts("lp", x, MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := hc.MulOpts("lp", x, MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Errorf("%s: K=2 HTTP-gathered y differs from single-node", name)
		}
	}
	if st := cluster.Stats(); st.Scatters < 6 {
		t.Errorf("cluster scattered %d band requests, want at least 6", st.Scatters)
	}
}
