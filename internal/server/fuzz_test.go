package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	spmv "repro"
)

// FuzzRegisterJSON exercises the POST /v1/matrices payload path — every
// source (suite, entries, matrix_market), the shards/symmetric modifiers,
// and their invalid combinations — against arbitrary bodies: the handler
// must never panic, must always answer with a well-formed JSON object,
// and must answer the structured cases with their documented statuses.
// The seed corpus lives alongside the mmio fuzz corpus in CI's
// fuzz-smoke job.
func FuzzRegisterJSON(f *testing.F) {
	// Each source on its own.
	f.Add(`{"suite":"QCD","scale":0.01,"seed":3}`)
	f.Add(`{"id":"a","name":"n","rows":3,"cols":3,"entries":[[0,0,1],[1,2,-2.5],[2,2,4]]}`)
	f.Add(`{"matrix_market":"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n"}`)
	// Symmetric pin, both ways, and on an asymmetric matrix.
	f.Add(`{"rows":2,"cols":2,"entries":[[0,1,2],[1,0,2]],"symmetric":true}`)
	f.Add(`{"rows":2,"cols":2,"entries":[[0,1,2]],"symmetric":true}`)
	f.Add(`{"rows":2,"cols":2,"entries":[[0,1,2]],"symmetric":false}`)
	// Shards without a cluster, and shards combined with symmetric.
	f.Add(`{"suite":"LP","scale":0.01,"shards":4}`)
	f.Add(`{"suite":"LP","scale":0.01,"shards":2,"symmetric":true}`)
	// Ambiguous multi-source requests.
	f.Add(`{"suite":"QCD","rows":2,"cols":2,"entries":[[0,0,1]]}`)
	f.Add(`{"suite":"QCD","matrix_market":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1\n"}`)
	// Malformed payloads: bad JSON, bad indices, bad dims, unknown suite.
	f.Add(`{"rows":2,"cols":2`)
	f.Add(`{"rows":-1,"cols":2,"entries":[[0,0,1]]}`)
	f.Add(`{"rows":2,"cols":2,"entries":[[0.5,0,1]]}`)
	f.Add(`{"rows":2,"cols":2,"entries":[[9,9,1]]}`)
	f.Add(`{"suite":"NotASuite"}`)
	f.Add(`{"rows":1000000000,"cols":1000000000,"entries":[[0,0,1]]}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`"x"`)
	f.Add(`{"matrix_market":"%%MatrixMarket matrix array real general\n-3 2\n"}`)

	f.Fuzz(func(t *testing.T, body string) {
		cfg := DefaultConfig()
		cfg.Threads = 1
		cfg.Workers = 1
		cfg.MaxBatch = 1
		cfg.MaxBodyBytes = 1 << 16 // bound hostile payload cost per exec
		s := New(cfg)
		defer s.Close()

		req := httptest.NewRequest("POST", "/v1/matrices", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		code := rec.Code
		if code != 201 && (code < 400 || code > 599) {
			t.Fatalf("status %d for body %q, want 201 or an error status", code, body)
		}
		var parsed map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatalf("non-JSON response %q for body %q: %v", rec.Body.String(), body, err)
		}
		if code == 201 {
			// Anything accepted must be immediately servable: listed with
			// its dimensions and tunable state.
			if _, ok := parsed["id"]; !ok {
				t.Fatalf("201 response without an id: %q", rec.Body.String())
			}
		} else if _, ok := parsed["error"]; !ok {
			t.Fatalf("error status %d without an error field: %q", code, rec.Body.String())
		}
	})
}

// TestRegisterFuzzSeedsStatuses pins the documented status codes of the
// structured seed payloads (the fuzzer itself only requires "no panic,
// well-formed JSON").
func TestRegisterFuzzSeedsStatuses(t *testing.T) {
	cases := []struct {
		body string
		want int
	}{
		{`{"rows":3,"cols":3,"entries":[[0,0,1],[1,2,-2.5],[2,2,4]]}`, 201},
		{`{"rows":2,"cols":2,"entries":[[0,1,2],[1,0,2]],"symmetric":true}`, 201},
		{`{"rows":2,"cols":2,"entries":[[0,1,2]],"symmetric":true}`, 400},
		{`{"suite":"LP","scale":0.01,"shards":4}`, 400},                // no cluster attached
		{`{"suite":"QCD","rows":2,"cols":2,"entries":[[0,0,1]]}`, 400}, // ambiguous
		{`{"rows":2,"cols":2`, 400},
		{`{"suite":"NotASuite"}`, 400},
		{`{}`, 400},
	}
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	cfg.RetuneInterval = time.Hour // exercise the scanner's lifecycle too
	s := New(cfg)
	defer s.Close()
	for _, tc := range cases {
		req := httptest.NewRequest("POST", "/v1/matrices", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// FuzzMulJSON exercises the POST /v1/matrices/{id}/mul payload path —
// the x vector plus the request options (tenant, class, deadline_ms)
// and the strict unknown-field decoding — against arbitrary bodies: the
// handler must never panic and must answer 200 or an error status with
// the uniform JSON error envelope.
func FuzzMulJSON(f *testing.F) {
	// Well-formed requests: bare, and every option populated.
	f.Add(`{"x":[1,2,3,4]}`)
	f.Add(`{"x":[1,2,3,4],"tenant":"acme","class":"latency"}`)
	f.Add(`{"x":[1,2,3,4],"tenant":"acme","class":"standard","deadline_ms":5000}`)
	f.Add(`{"x":[0,0,0,0],"class":"bulk"}`)
	// Option validation: unknown class, negative deadline, typo'd field
	// names (DisallowUnknownFields), wrong option types.
	f.Add(`{"x":[1,2,3,4],"class":"interactive"}`)
	f.Add(`{"x":[1,2,3,4],"deadline_ms":-1}`)
	f.Add(`{"x":[1,2,3,4],"tennant":"acme"}`)
	f.Add(`{"x":[1,2,3,4],"clas":"latency"}`)
	f.Add(`{"x":[1,2,3,4],"tenant":7}`)
	f.Add(`{"x":[1,2,3,4],"deadline_ms":"soon"}`)
	// Vector shape and type breakage.
	f.Add(`{"x":[1,2]}`)
	f.Add(`{"x":[]}`)
	f.Add(`{"x":[null,2,3,4]}`)
	f.Add(`{"x":["a",2,3,4]}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`"x"`)
	f.Add(`{"x":[1,2,3,4]`)
	// A finite x whose y overflows: JSON cannot spell the +Inf.
	f.Add(`{"x":[1e308,1,1,1]}`)

	f.Fuzz(func(t *testing.T, body string) {
		s := newTinyMulServer(t)
		defer s.Close()

		req := httptest.NewRequest("POST", "/v1/matrices/a/mul", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		code := rec.Code
		if code != 200 && (code < 400 || code > 599) {
			t.Fatalf("status %d for body %q, want 200 or an error status", code, body)
		}
		var parsed map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatalf("non-JSON response %q for body %q: %v", rec.Body.String(), body, err)
		}
		if code == 200 {
			if _, ok := parsed["y"]; !ok {
				t.Fatalf("200 response without y: %q", rec.Body.String())
			}
		} else if _, ok := parsed["error"]; !ok {
			t.Fatalf("error status %d without an error field: %q", code, rec.Body.String())
		}
	})
}

// TestMulFuzzSeedsStatuses pins the documented status codes of the
// structured mul seed payloads.
func TestMulFuzzSeedsStatuses(t *testing.T) {
	cases := []struct {
		body string
		want int
	}{
		{`{"x":[1,2,3,4]}`, 200},
		{`{"x":[1,2,3,4],"tenant":"acme","class":"latency"}`, 200},
		{`{"x":[1,2,3,4],"tenant":"acme","class":"standard","deadline_ms":5000}`, 200},
		{`{"x":[1,2,3,4],"class":"interactive"}`, 400},
		{`{"x":[1,2,3,4],"deadline_ms":-1}`, 400},
		{`{"x":[1,2,3,4],"tennant":"acme"}`, 400},
		{`{"x":[1,2]}`, 400},
		{`{"x":[1,2,3,4]`, 400},
		{`{}`, 400},
		{`{"x":[1e308,1,1,1]}`, 422}, // y[0] = +Inf: non_finite_result
	}
	s := newTinyMulServer(t)
	defer s.Close()
	for _, tc := range cases {
		req := httptest.NewRequest("POST", "/v1/matrices/a/mul", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}
}

// newTinyMulServer returns a single-threaded server with a small body cap
// and the 4x4 tridiagonal (2 on the diagonal, -1 beside it) registered
// as "a": the Mul fuzzers' target.
func newTinyMulServer(t testing.TB) *Server {
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	cfg.MaxBatch = 1
	cfg.MaxBodyBytes = 1 << 16 // bound hostile payload cost per exec
	s := New(cfg)
	m := spmv.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		_ = m.Set(i, i, 2)
		if i > 0 {
			_ = m.Set(i, i-1, -1)
			_ = m.Set(i-1, i, -1)
		}
	}
	if _, err := s.Register("a", "tiny", m); err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s
}

// floatBytes is the binary-tier encoding of v.
func floatBytes(v ...float64) []byte { return appendFloats(nil, v) }

// FuzzMulBinary exercises the binary tier of POST /v1/matrices/{id}/mul —
// raw body bytes, the query-string options and the Content-Type that
// selects the tier — with Accept: application/octet-stream: the handler
// must never panic, a 200 must be an octet-stream of exactly 8·rows
// bytes, and anything else an error status with the JSON envelope.
func FuzzMulBinary(f *testing.F) {
	ok := floatBytes(1, 2, 3, 4)
	// Well-formed requests: bare, with every option, media-type params.
	f.Add(ok, "", mimeOctetStream)
	f.Add(ok, "tenant=acme&class=latency&deadline_ms=5000&affinity=k", mimeOctetStream)
	f.Add(ok, "", "Application/Octet-Stream; charset=binary")
	// Every IEEE-754 class crosses: ±0, subnormal, ±Inf, NaN.
	f.Add(floatBytes(math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Inf(1), math.NaN()), "", mimeOctetStream)
	// Length breakage: ragged, short by one float, empty.
	f.Add(ok[:31], "", mimeOctetStream)
	f.Add(ok[:24], "", mimeOctetStream)
	f.Add([]byte{}, "", mimeOctetStream)
	// Option validation: unknown and repeated keys, bad deadlines, bad
	// escapes, unknown class.
	f.Add(ok, "tennant=acme", mimeOctetStream)
	f.Add(ok, "tenant=a&tenant=b", mimeOctetStream)
	f.Add(ok, "deadline_ms=-1", mimeOctetStream)
	f.Add(ok, "deadline_ms=soon", mimeOctetStream)
	f.Add(ok, "deadline_ms=9223372036854775807", mimeOctetStream)
	f.Add(ok, "tenant=%zz", mimeOctetStream)
	f.Add(ok, "class=interactive", mimeOctetStream)
	// Other Content-Types take the JSON tier.
	f.Add([]byte(`{"x":[1,2,3,4]}`), "", "application/json")
	f.Add(ok, "", "")

	f.Fuzz(func(t *testing.T, body []byte, query, contentType string) {
		s := newTinyMulServer(t)
		defer s.Close()

		req := httptest.NewRequest("POST", "/v1/matrices/a/mul", bytes.NewReader(body))
		req.URL.RawQuery = query
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Accept", mimeOctetStream)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		code := rec.Code
		if code == 200 {
			if ct := rec.Header().Get("Content-Type"); ct != mimeOctetStream {
				t.Fatalf("200 with Content-Type %q", ct)
			}
			if n := rec.Body.Len(); n != 8*4 {
				t.Fatalf("200 with a %d-byte body, want %d", n, 8*4)
			}
			return
		}
		if code < 400 || code > 599 {
			t.Fatalf("status %d, want 200 or an error status", code)
		}
		var parsed map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatalf("non-JSON error response %q: %v", rec.Body.String(), err)
		}
		if _, ok := parsed["error"]; !ok {
			t.Fatalf("error status %d without an error field: %q", code, rec.Body.String())
		}
	})
}

// TestMulBinaryStatuses pins the binary tier's documented statuses and
// error codes, and that its replies carry the exact bits.
func TestMulBinaryStatuses(t *testing.T) {
	ok := floatBytes(1, 2, 3, 4)
	cases := []struct {
		name        string
		body        []byte
		query       string
		contentType string
		accept      string
		chunked     bool // no Content-Length
		want        int
		code        string // envelope code of an error
	}{
		{"bare", ok, "", mimeOctetStream, mimeOctetStream, false, 200, ""},
		{"options", ok, "tenant=acme&class=latency&deadline_ms=5000&affinity=k", mimeOctetStream, mimeOctetStream, false, 200, ""},
		{"media params", ok, "", "application/octet-stream; charset=binary", "application/json;q=0.5, application/octet-stream", false, 200, ""},
		{"json reply", ok, "", mimeOctetStream, "", false, 200, ""},
		{"json request, binary reply", []byte(`{"x":[1,2,3,4]}`), "", "application/json", mimeOctetStream, false, 200, ""},
		{"ragged", ok[:31], "", mimeOctetStream, mimeOctetStream, false, 400, "bad_request"},
		{"wrong count", ok[:24], "", mimeOctetStream, mimeOctetStream, false, 400, "bad_request"},
		{"empty", nil, "", mimeOctetStream, mimeOctetStream, false, 400, "bad_request"},
		{"unknown key", ok, "tennant=acme", mimeOctetStream, mimeOctetStream, false, 400, "bad_request"},
		{"repeated key", ok, "tenant=a&tenant=b", mimeOctetStream, mimeOctetStream, false, 400, "bad_request"},
		{"negative deadline", ok, "deadline_ms=-1", mimeOctetStream, mimeOctetStream, false, 400, "bad_request"},
		{"malformed deadline", ok, "deadline_ms=soon", mimeOctetStream, mimeOctetStream, false, 400, "bad_request"},
		{"overflowing deadline", ok, "deadline_ms=9223372036854775807", mimeOctetStream, mimeOctetStream, false, 400, "bad_request"},
		{"bad escape", ok, "tenant=%zz", mimeOctetStream, mimeOctetStream, false, 400, "bad_request"},
		{"unknown class", ok, "class=interactive", mimeOctetStream, mimeOctetStream, false, 400, "bad_request"},
		{"no length", ok, "", mimeOctetStream, mimeOctetStream, true, 411, "length_required"},
		{"too large", make([]byte, 1<<16+8), "", mimeOctetStream, mimeOctetStream, false, 413, "payload_too_large"},
		{"overflow, json reply", floatBytes(1e308, 1, 1, 1), "", mimeOctetStream, "", false, 422, "non_finite_result"},
		{"overflow, binary reply", floatBytes(1e308, 1, 1, 1), "", mimeOctetStream, mimeOctetStream, false, 200, ""},
	}
	s := newTinyMulServer(t)
	defer s.Close()
	h := s.Handler()
	for _, tc := range cases {
		req := httptest.NewRequest("POST", "/v1/matrices/a/mul", bytes.NewReader(tc.body))
		req.URL.RawQuery = tc.query
		req.Header.Set("Content-Type", tc.contentType)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		if tc.chunked {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
			continue
		}
		if tc.want != 200 {
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code != tc.code {
				t.Errorf("%s: envelope %q, want code %q", tc.name, rec.Body.String(), tc.code)
			}
			continue
		}
		var sent mulRequest
		if err := json.Unmarshal(tc.body, &sent); err != nil {
			if sent.X, err = decodeFloats(tc.body); err != nil {
				t.Fatal(err)
			}
		}
		want, err := s.MulOpts("a", sent.X, MulOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		if acceptsOctetStream(tc.accept) {
			got, err = decodeFloats(rec.Body.Bytes())
		} else {
			var resp mulResponse
			err = json.Unmarshal(rec.Body.Bytes(), &resp)
			got = resp.Y
		}
		if err != nil || !sameBits(got, want) {
			t.Errorf("%s: y = %v (%v), want %v", tc.name, got, err, want)
		}
	}
}

// FuzzSolveJSON exercises the POST /v1/matrices/{id}/solve payload path —
// method selection, tolerance/budget validation, vector shape checks —
// against arbitrary bodies: the handler must never panic, must answer 201
// or a 4xx with a well-formed JSON object, must never leave more resident
// sessions than the cap, and the server must close cleanly afterwards
// (sessions drain, no goroutine leak under the race detector).
func FuzzSolveJSON(f *testing.F) {
	// Well-formed requests, both methods.
	f.Add(`{"method":"cg","b":[1,2,3,4],"tol":1e-8,"max_iters":50}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"x0":[0,0,0,0]}`)
	f.Add(`{"method":"power","tol":1e-6,"max_iters":100}`)
	f.Add(`{"method":"power","x0":[1,0,0,0]}`)
	// Malformed tolerances and budgets.
	f.Add(`{"method":"cg","b":[1,2,3,4],"tol":-1}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"tol":NaN}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"tol":1e999}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"max_iters":-7}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"max_iters":100001}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"max_iters":9223372036854775808}`)
	// NaN-ish and shape-broken vectors (JSON cannot spell NaN; these probe
	// the decoder's rejections and the length checks).
	f.Add(`{"method":"cg","b":[null,2,3,4]}`)
	f.Add(`{"method":"cg","b":["a",2,3,4]}`)
	f.Add(`{"method":"cg","b":[1,2]}`)
	f.Add(`{"method":"cg"}`)
	f.Add(`{"method":"cg","b":[1,2,3,4],"x0":[1]}`)
	// Method confusion and junk.
	f.Add(`{"method":"power","b":[1,2,3,4]}`)
	f.Add(`{"method":"jacobi","b":[1,2,3,4]}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`"cg"`)
	f.Add(`{"method":"cg","b":[1,2,3,4]`)

	f.Fuzz(func(t *testing.T, body string) {
		cfg := DefaultConfig()
		cfg.Threads = 1
		cfg.Workers = 1
		cfg.MaxBatch = 1
		cfg.MaxSessions = 2
		cfg.MaxBodyBytes = 1 << 16
		s := New(cfg)
		defer s.Close()
		m := spmv.NewMatrix(4, 4)
		for i := 0; i < 4; i++ {
			_ = m.Set(i, i, 2)
			if i > 0 {
				_ = m.Set(i, i-1, -1)
				_ = m.Set(i-1, i, -1)
			}
		}
		if _, err := s.Register("a", "tiny", m); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()

		req := httptest.NewRequest("POST", "/v1/matrices/a/solve", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if code := rec.Code; code != 201 && (code < 400 || code > 599) {
			t.Fatalf("status %d for body %q, want 201 or an error status", code, body)
		}
		var decoded map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("non-JSON response %q for body %q", rec.Body.String(), body)
		}
		if rec.Code == 201 {
			sid, _ := decoded["sid"].(string)
			if sid == "" {
				t.Fatalf("201 without sid: %q", rec.Body.String())
			}
			// The created session must be observable and cancellable.
			rec2 := httptest.NewRecorder()
			h.ServeHTTP(rec2, httptest.NewRequest("GET", "/v1/solve/"+sid, nil))
			if rec2.Code != 200 {
				t.Fatalf("GET created session: %d", rec2.Code)
			}
			rec3 := httptest.NewRecorder()
			h.ServeHTTP(rec3, httptest.NewRequest("DELETE", "/v1/solve/"+sid, nil))
			if rec3.Code != 200 {
				t.Fatalf("DELETE created session: %d", rec3.Code)
			}
		}
		if got := len(s.Sessions()); got > cfg.MaxSessions {
			t.Fatalf("%d resident sessions exceed the cap %d", got, cfg.MaxSessions)
		}
		waitEnd := time.Now().Add(5 * time.Second)
		for _, sess := range s.Sessions() {
			for sess.State == "running" {
				if time.Now().After(waitEnd) {
					t.Fatalf("session %s still running", sess.SID)
				}
				var err error
				if sess, err = s.SolveStatus(sess.SID, 50*time.Millisecond); err != nil {
					break
				}
			}
		}
	})
}

// FuzzPatchJSON exercises the PATCH /v1/matrices/{id} payload path — the
// delta batch decoding, op-kind/coordinate/finiteness validation, and
// batch atomicity — against arbitrary bodies: the handler must never
// panic, must answer 200 or an error status with the uniform JSON
// envelope, and must leave the matrix servable either way (a rejected
// batch applies nothing; an applied one only changes values).
func FuzzPatchJSON(f *testing.F) {
	// Well-formed batches, every op kind.
	f.Add(`{"deltas":[{"op":"set","row":0,"col":1,"val":2.5}]}`)
	f.Add(`{"deltas":[{"op":"add","row":3,"col":3,"val":-1.25},{"op":"del","row":0,"col":0}]}`)
	f.Add(`{"deltas":[{"op":"set","row":1,"col":2,"val":1},{"op":"set","row":1,"col":2,"val":2},{"op":"del","row":1,"col":2}]}`)
	f.Add(`{"deltas":[{"op":"del","row":2,"col":0}]}`)
	// Validation: unknown op, out-of-range coordinates, atomicity probes
	// (valid op before the invalid one must not apply).
	f.Add(`{"deltas":[{"op":"replace","row":0,"col":0,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","row":4,"col":0,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","row":0,"col":-1,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","row":0,"col":0,"val":1},{"op":"set","row":99,"col":0,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","row":0,"col":0,"val":1e999}]}`)
	// Shape and type breakage, strict decoding.
	f.Add(`{"deltas":[]}`)
	f.Add(`{"deltas":null}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Add(`"patch"`)
	f.Add(`{"deltas":[{"op":"set","row":0,"col":0,"val":1}]`)
	f.Add(`{"deltas":[{"op":"set","row":0.5,"col":0,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","rows":0,"col":0,"val":1}]}`)
	f.Add(`{"delta":[{"op":"set","row":0,"col":0,"val":1}]}`)
	f.Add(`{"deltas":[{"op":"set","row":2147483648,"col":0,"val":1}]}`)

	f.Fuzz(func(t *testing.T, body string) {
		cfg := DefaultConfig()
		cfg.Threads = 1
		cfg.Workers = 1
		cfg.MaxBatch = 1
		cfg.MaxBodyBytes = 1 << 16
		cfg.RecompactThreshold = -1 // keep execs deterministic: no background fold
		s := New(cfg)
		defer s.Close()
		m := spmv.NewMatrix(4, 4)
		for i := 0; i < 4; i++ {
			_ = m.Set(i, i, 2)
			if i > 0 {
				_ = m.Set(i, i-1, -1)
				_ = m.Set(i-1, i, -1)
			}
		}
		if _, err := s.Register("a", "tiny", m); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()

		req := httptest.NewRequest("PATCH", "/v1/matrices/a", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		code := rec.Code
		if code != 200 && (code < 400 || code > 599) {
			t.Fatalf("status %d for body %q, want 200 or an error status", code, body)
		}
		var parsed map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatalf("non-JSON response %q for body %q: %v", rec.Body.String(), body, err)
		}
		if code == 200 {
			if seq, _ := parsed["seq"].(float64); seq < 1 {
				t.Fatalf("200 response without a positive seq: %q", rec.Body.String())
			}
		} else if _, ok := parsed["error"]; !ok {
			t.Fatalf("error status %d without an error field: %q", code, rec.Body.String())
		}
		// Whatever the batch did, the matrix must still serve.
		rec2 := httptest.NewRecorder()
		h.ServeHTTP(rec2, httptest.NewRequest("POST", "/v1/matrices/a/mul",
			strings.NewReader(`{"x":[1,1,1,1]}`)))
		if rec2.Code != 200 {
			t.Fatalf("mul after patch (%d): %d %q", code, rec2.Code, rec2.Body.String())
		}
	})
}

// TestPatchFuzzSeedsStatuses pins the documented status codes of the
// structured patch seed payloads.
func TestPatchFuzzSeedsStatuses(t *testing.T) {
	cases := []struct {
		body string
		want int
	}{
		{`{"deltas":[{"op":"set","row":0,"col":1,"val":2.5}]}`, 200},
		{`{"deltas":[{"op":"add","row":3,"col":3,"val":-1.25},{"op":"del","row":0,"col":0}]}`, 200},
		{`{"deltas":[{"op":"replace","row":0,"col":0,"val":1}]}`, 400},
		{`{"deltas":[{"op":"set","row":4,"col":0,"val":1}]}`, 400},
		{`{"deltas":[{"op":"set","row":0,"col":0,"val":1},{"op":"set","row":99,"col":0,"val":1}]}`, 400},
		{`{"deltas":[]}`, 400},
		{`{"delta":[{"op":"set","row":0,"col":0,"val":1}]}`, 400}, // unknown field
		{`{}`, 400},
		{`{"deltas":[{"op":"set","row":0,"col":0,"val":1}]`, 400},
	}
	cfg := DefaultConfig()
	cfg.Threads = 1
	cfg.Workers = 1
	cfg.RecompactThreshold = -1
	s := New(cfg)
	defer s.Close()
	m := spmv.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		_ = m.Set(i, i, 2)
		if i > 0 {
			_ = m.Set(i, i-1, -1)
			_ = m.Set(i-1, i, -1)
		}
	}
	if _, err := s.Register("a", "tiny", m); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		req := httptest.NewRequest("PATCH", "/v1/matrices/a", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("body %q: status %d, want %d (%s)", tc.body, rec.Code, tc.want, rec.Body.String())
		}
	}
	// Ghost id: 404 through the envelope.
	req := httptest.NewRequest("PATCH", "/v1/matrices/ghost",
		strings.NewReader(`{"deltas":[{"op":"set","row":0,"col":0,"val":1}]}`))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 404 {
		t.Errorf("ghost patch: status %d, want 404", rec.Code)
	}
}
