package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	spmv "repro"
	"repro/internal/obs"
)

// registerRequest is the body of POST /v1/matrices. Exactly one matrix
// source must be provided — a Table 3 suite twin, explicit COO entries, or
// an inline MatrixMarket document; a request naming more than one is
// rejected with 400. Shards >= 2 asks the attached shard coordinator to
// split the matrix into that many nonzero-balanced row bands across the
// cluster's member nodes.
type registerRequest struct {
	ID     string `json:"id,omitempty"`
	Name   string `json:"name,omitempty"`
	Shards int    `json:"shards,omitempty"`

	// Symmetric selects the storage family: true requires upper-triangle
	// (SymCSR) storage and fails with 400 when the matrix is not
	// numerically symmetric; false pins general storage; omitted defers
	// to the server's AutoSymmetric config. Sharded registrations cannot
	// honor true — row bands are rectangular and always stored general
	// (keeping sharded bits identical to general single-node serving) —
	// so "symmetric": true with shards >= 2 is rejected with 400 rather
	// than silently ignored.
	Symmetric *bool `json:"symmetric,omitempty"`

	// Suite twin generation.
	Suite string  `json:"suite,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`

	// Explicit entries.
	Rows    int          `json:"rows,omitempty"`
	Cols    int          `json:"cols,omitempty"`
	Entries [][3]float64 `json:"entries,omitempty"` // [i, j, value]

	// Inline MatrixMarket document.
	MatrixMarket string `json:"matrix_market,omitempty"`
}

type mulRequest struct {
	X []float64 `json:"x"`
	// Tenant and Class are the request's admission identity (empty means
	// the default tenant / the server's default class); DeadlineMS bounds
	// its time in the serving layer in milliseconds (0 means none). See
	// MulOptions.
	Tenant     string `json:"tenant,omitempty"`
	Class      string `json:"class,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	// Affinity is the sharded-routing affinity key (MulOptions.Affinity);
	// ignored for locally served matrices.
	Affinity string `json:"affinity,omitempty"`
}

type mulResponse struct {
	Y []float64 `json:"y"`
}

// errorBody is the uniform machine-readable error payload every handler
// returns: a stable snake_case code (mapped from the server's sentinel
// errors, or from the status class when no sentinel applies) plus the
// human-readable message. Clients branch on code, humans read message.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Admission rejections carry their structured details so clients can
	// reconstruct the AdmissionError faithfully: the tenant whose bucket
	// refused, and the server's refill estimate at full resolution (the
	// Retry-After header rounds up to whole seconds).
	Tenant       string  `json:"tenant,omitempty"`
	RetryAfterMS float64 `json:"retry_after_ms,omitempty"`
}

type errorResponse struct {
	Error errorBody `json:"error"`
}

// errorCode maps an error (by sentinel classification) and its HTTP
// status to the envelope's stable code string.
func errorCode(status int, err error) string {
	switch {
	case errors.Is(err, ErrUnknownMatrix):
		return "unknown_matrix"
	case errors.Is(err, ErrAlreadyRegistered):
		return "already_registered"
	case errors.Is(err, ErrNotSymmetric):
		return "not_symmetric"
	case errors.Is(err, ErrMemberFault):
		return "member_fault"
	case errors.Is(err, ErrUnknownSession):
		return "unknown_session"
	case errors.Is(err, ErrTooManySessions):
		return "too_many_sessions"
	case errors.Is(err, ErrAdmissionLimited):
		return "admission_limited"
	case errors.Is(err, ErrDeadlineExceeded):
		return "deadline_exceeded"
	case errors.Is(err, ErrMethodNotAllowed):
		return "method_not_allowed"
	case errors.Is(err, ErrShardedImmutable):
		return "sharded_immutable"
	case errors.Is(err, ErrNonFiniteResult):
		return "non_finite_result"
	}
	switch status {
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusLengthRequired:
		return "length_required"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "too_many_requests"
	case http.StatusBadGateway:
		return "bad_gateway"
	case http.StatusGatewayTimeout:
		return "gateway_timeout"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "bad_request"
	}
}

// setRetryAfter surfaces an AdmissionError's refill estimate as the
// standard Retry-After header (whole seconds, minimum 1).
func setRetryAfter(w http.ResponseWriter, err error) {
	var ae *AdmissionError
	if !errors.As(err, &ae) {
		return
	}
	secs := int64(math.Ceil(ae.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// Handler returns the HTTP API of the serving subsystem:
//
//	POST /v1/matrices             register a matrix (suite | entries | matrix_market; optional shards)
//	GET  /v1/matrices             list registered matrices (local and sharded)
//	PATCH /v1/matrices/{id}       apply a batch of COO deltas (set | add | del)
//	DELETE /v1/matrices/{id}      tear a matrix down (drains its solver sessions)
//	POST /v1/matrices/{id}/mul    compute y = A·x (coalesced with concurrent calls)
//	GET  /v1/matrices/{id}/tuning online re-tuner state: generation, drift, decision log
//	POST /v1/matrices/{id}/solve  start a server-resident solver session (cg | power)
//	GET  /v1/solve                list resident solver sessions
//	GET  /v1/solve/{sid}          session state + residual history (?wait=dur blocks until done)
//	DELETE /v1/solve/{sid}        cancel and remove a session
//	GET  /v1/stats                JSON counter snapshot + latency percentiles (+ cluster rollup)
//	GET  /v1/cluster              shard topology: members and sharded matrices
//	GET  /v1/traces               sampled request traces (?format=chrome for trace_event JSON)
//	GET  /v1/healthz              liveness: status, uptime, matrix count
//	GET  /v1/buildinfo            module path, version, Go version, VCS revision
//	GET  /metrics                 Prometheus text exposition: counters, gauges, latency histograms
//
// Every route is wrapped by the instrumentation middleware: request ids,
// structured access logs, and per-endpoint latency histograms. Every
// error response carries the uniform envelope {"error":{"code","message"}}:
// requests matching no path are a JSON 404, and known paths hit with a
// method they don't serve are a JSON 405 with an Allow header (the
// registered catch-all would otherwise swallow the mux's native 405).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleNotFound)
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.method+" "+rt.pattern, rt.handler)
	}
	return s.instrument(mux)
}

// route is one method+pattern binding of the API. The table drives both
// the mux registration and the catch-all's 405 detection — a route added
// here automatically answers 405 (not 404) when hit with the wrong
// method.
type route struct {
	method  string
	pattern string // ServeMux path pattern ({x} wildcards)
	handler http.HandlerFunc
}

func (s *Server) routes() []route {
	return []route{
		{http.MethodPost, "/v1/matrices", s.handleRegister},
		{http.MethodGet, "/v1/matrices", s.handleList},
		{http.MethodPatch, "/v1/matrices/{id}", s.handlePatchMatrix},
		{http.MethodDelete, "/v1/matrices/{id}", s.handleDeleteMatrix},
		{http.MethodPost, "/v1/matrices/{id}/mul", s.handleMul},
		{http.MethodGet, "/v1/matrices/{id}/tuning", s.handleTuning},
		{http.MethodPost, "/v1/matrices/{id}/solve", s.handleSolveCreate},
		{http.MethodGet, "/v1/solve", s.handleSolveList},
		{http.MethodGet, "/v1/solve/{sid}", s.handleSolveGet},
		{http.MethodDelete, "/v1/solve/{sid}", s.handleSolveDelete},
		{http.MethodGet, "/v1/stats", s.handleStats},
		{http.MethodGet, "/v1/cluster", s.handleCluster},
		{http.MethodGet, "/v1/traces", s.handleTraces},
		{http.MethodGet, "/v1/healthz", s.handleHealthz},
		{http.MethodGet, "/v1/buildinfo", s.handleBuildinfo},
		{http.MethodGet, "/metrics", s.handleMetrics},
	}
}

// writeJSON marshals v before committing the status, so a value the
// encoder cannot represent becomes a 500 envelope rather than a success
// status with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = json.Marshal(errorResponse{Error: errorBody{ // an errorBody always marshals
			Code:    errorCode(code, err),
			Message: "encoding the response: " + err.Error(),
		}})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n')) // a failed write is the client's hang-up
}

func writeError(w http.ResponseWriter, code int, err error) {
	body := errorBody{
		Code:    errorCode(code, err),
		Message: err.Error(),
	}
	var ae *AdmissionError
	if errors.As(err, &ae) {
		body.Tenant = ae.Tenant
		body.RetryAfterMS = float64(ae.RetryAfter) / float64(time.Millisecond)
	}
	writeJSON(w, code, errorResponse{Error: body})
}

// handleNotFound is the catch-all for requests matching no route, so
// even a typo'd path gets the JSON error envelope rather than the text
// default. Registering a catch-all suppresses the mux's native 405
// handling, so the catch-all reconstructs it from the route table: a
// known path hit with a method it doesn't serve answers 405 with an
// Allow header listing the methods that would have worked.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	if allowed := s.allowedMethods(r.URL.Path); len(allowed) > 0 {
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("%w: %s %s (allowed: %s)", ErrMethodNotAllowed, r.Method, r.URL.Path, strings.Join(allowed, ", ")))
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("no such endpoint: %s %s", r.Method, r.URL.Path))
}

// allowedMethods returns the deduplicated methods that serve path, in
// route-table order; empty means no route knows the path at all.
func (s *Server) allowedMethods(path string) []string {
	var allowed []string
	for _, rt := range s.routes() {
		if !pathMatches(rt.pattern, path) {
			continue
		}
		dup := false
		for _, m := range allowed {
			if m == rt.method {
				dup = true
				break
			}
		}
		if !dup {
			allowed = append(allowed, rt.method)
		}
	}
	return allowed
}

// pathMatches reports whether a concrete request path matches a route
// pattern, where a {x} segment matches any single non-empty segment.
// This mirrors the subset of ServeMux pattern syntax the route table
// uses — exact segments plus single-segment wildcards, no "..." tails.
func pathMatches(pattern, path string) bool {
	ps := strings.Split(pattern, "/")
	cs := strings.Split(path, "/")
	if len(ps) != len(cs) {
		return false
	}
	for i, seg := range ps {
		if len(seg) >= 2 && seg[0] == '{' && seg[len(seg)-1] == '}' {
			if cs[i] == "" {
				return false
			}
			continue
		}
		if seg != cs[i] {
			return false
		}
	}
	return true
}

// decodeBody decodes a JSON request body under the server's size cap,
// reporting whether decoding succeeded; on failure the 400/413 response
// has already been written. Unknown fields are rejected: a typo'd option
// name ("tennant") fails loudly with 400 instead of silently running
// with defaults.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	m, name, err := matrixFromRequest(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fail := func(err error) {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrAlreadyRegistered):
			code = http.StatusConflict
		case errors.Is(err, ErrMemberFault):
			// A member or transport fault during sharded registration is
			// the fleet's failure, not the client's request.
			code = http.StatusBadGateway
		}
		writeError(w, code, err)
	}
	if req.Shards >= 2 {
		if s.cluster == nil {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("shards=%d requested but this server fronts no cluster", req.Shards))
			return
		}
		if req.Symmetric != nil && *req.Symmetric {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("symmetric storage cannot be combined with shards=%d: row bands are stored general; omit symmetric or set it false", req.Shards))
			return
		}
		info, err := s.cluster.RegisterSharded(req.ID, name, m, req.Shards)
		if err != nil {
			fail(err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
		return
	}
	info, err := s.RegisterOpts(req.ID, name, m, RegisterOptions{Symmetric: req.Symmetric})
	if err != nil {
		fail(err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// matrixFromRequest builds the matrix named by one register request. A
// request naming more than one source is ambiguous and rejected — the API
// promises exactly one of suite, entries, matrix_market.
func matrixFromRequest(req registerRequest) (*spmv.Matrix, string, error) {
	sources := 0
	if req.Suite != "" {
		sources++
	}
	if len(req.Entries) > 0 {
		sources++
	}
	if req.MatrixMarket != "" {
		sources++
	}
	if sources > 1 {
		return nil, "", fmt.Errorf("ambiguous request: provide exactly one of suite, entries, matrix_market")
	}
	var m *spmv.Matrix
	var name string
	var err error
	switch {
	case req.Suite != "":
		scale := req.Scale
		if scale <= 0 {
			scale = 0.02
		}
		m, err = spmv.GenerateSuite(req.Suite, scale, req.Seed)
		name = req.Suite
	case len(req.Entries) > 0:
		m, err = matrixFromEntries(req.Rows, req.Cols, req.Entries)
		name = "upload"
	case req.MatrixMarket != "":
		m, err = spmv.ReadMatrixMarket(strings.NewReader(req.MatrixMarket))
		name = "matrixmarket"
	default:
		err = fmt.Errorf("provide one of suite, entries, matrix_market")
	}
	if req.Name != "" {
		name = req.Name
	}
	return m, name, err
}

func matrixFromEntries(rows, cols int, entries [][3]float64) (*spmv.Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("rows and cols must be positive, got %dx%d", rows, cols)
	}
	m := spmv.NewMatrix(rows, cols)
	for n, e := range entries {
		i, j := int(e[0]), int(e[1])
		if float64(i) != e[0] || float64(j) != e[1] {
			return nil, fmt.Errorf("entry %d: non-integer indices (%g, %g)", n, e[0], e[1])
		}
		if err := m.Set(i, j, e[2]); err != nil {
			return nil, fmt.Errorf("entry %d: %w", n, err)
		}
	}
	return m, nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	list := s.Matrices()
	if s.cluster != nil {
		for _, si := range s.cluster.Matrices() {
			list = append(list, MatrixInfo{
				ID: si.ID, Name: si.Name, Rows: si.Rows, Cols: si.Cols, NNZ: si.NNZ,
				Kernel: "sharded", Shards: si.Shards, Replicas: si.Replicas,
				SweepBytes: si.MaxBandSweepBytes,
			})
		}
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleMul(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t0 := s.stageClock()
	x, opts, ok := s.decodeMul(w, r)
	if !ok {
		return
	}
	s.observeStage(stageDecode, t0)
	// MulOpts routes sharded ids through the cluster front itself, so
	// sharded and local requests share one admission path (tenant bucket,
	// priority gate, deadline) and one error surface.
	y, err := s.MulOpts(id, x, opts)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrMemberFault):
			// Checked before ErrUnknownMatrix: a member that lost its band
			// mid-request is a fleet fault even though the underlying
			// member error is a 404.
			code = http.StatusBadGateway
		case errors.Is(err, ErrUnknownMatrix):
			code = http.StatusNotFound
		case errors.Is(err, ErrAdmissionLimited):
			code = http.StatusTooManyRequests
			setRetryAfter(w, err)
		case errors.Is(err, ErrDeadlineExceeded):
			code = http.StatusGatewayTimeout
		}
		writeError(w, code, err)
		return
	}
	t1 := s.stageClock()
	if acceptsOctetStream(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", mimeOctetStream)
		w.Header().Set("Content-Length", strconv.Itoa(8*len(y)))
		_, _ = w.Write(appendFloats(make([]byte, 0, 8*len(y)), y)) // a failed write is the client's hang-up
	} else {
		// JSON has no spelling for ±Inf or NaN; say so instead of
		// answering with a body the encoder could not finish.
		for i, v := range y {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				writeError(w, http.StatusUnprocessableEntity, fmt.Errorf(
					"%w: y[%d] = %v cannot be encoded as JSON; request Accept: %s to receive every IEEE-754 value",
					ErrNonFiniteResult, i, v, mimeOctetStream))
				return
			}
		}
		writeJSON(w, http.StatusOK, mulResponse{Y: y})
	}
	s.observeStage(stageEncode, t1)
}

// decodeMul reads x and the request options in the encoding the
// Content-Type names: application/octet-stream is the binary tier (x as
// the body, options in the query string); anything else is the JSON
// tier. On failure the error response has already been written.
func (s *Server) decodeMul(w http.ResponseWriter, r *http.Request) ([]float64, MulOptions, bool) {
	if !isOctetStream(r.Header.Get("Content-Type")) {
		var req mulRequest
		if !s.decodeBody(w, r, &req) {
			return nil, MulOptions{}, false
		}
		if req.DeadlineMS < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("negative deadline_ms %d", req.DeadlineMS))
			return nil, MulOptions{}, false
		}
		return req.X, MulOptions{
			Tenant:   req.Tenant,
			Class:    req.Class,
			Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
			Affinity: req.Affinity,
		}, true
	}
	opts, err := parseMulQuery(r.URL.RawQuery)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, MulOptions{}, false
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return nil, MulOptions{}, false
	}
	x, err := decodeFloats(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, MulOptions{}, false
	}
	return x, opts, true
}

// readBody reads a request body into one buffer sized from its declared
// Content-Length, under the server's size cap. On failure the 400, 411
// or 413 response has already been written.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	n := r.ContentLength
	if n < 0 {
		writeError(w, http.StatusLengthRequired, errors.New("a binary request body needs a Content-Length"))
		return nil, false
	}
	if n > s.cfg.MaxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", s.cfg.MaxBodyBytes))
		return nil, false
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return nil, false
	}
	return body, true
}

// patchRequest is the body of PATCH /v1/matrices/{id}: one atomic,
// ordered batch of COO deltas. The whole batch validates before any of
// it applies; a rejected batch leaves the matrix untouched.
type patchRequest struct {
	Deltas []Delta `json:"deltas"`
}

func (s *Server) handlePatchMatrix(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req patchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	res, err := s.Patch(id, req.Deltas)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrShardedImmutable):
			code = http.StatusConflict
		case errors.Is(err, ErrUnknownMatrix):
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleDeleteMatrix(w http.ResponseWriter, r *http.Request) {
	res, err := s.DeleteMatrix(r.PathValue("id"))
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrMemberFault):
			// Checked before ErrUnknownMatrix, as in handleMul: the
			// coordinator entry is gone either way, but a band teardown
			// failing on a member is a fleet fault worth surfacing.
			code = http.StatusBadGateway
		case errors.Is(err, ErrUnknownMatrix):
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleTuning(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Tuning(r.PathValue("id"))
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrUnknownMatrix) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// StatsReport is /v1/stats: the local serving counters, the measured
// latency percentiles (per endpoint, per stage, per matrix, per SLO
// class), the admission-and-scheduling ledgers (per tenant, per class,
// Jain fairness) when the scheduling layer is on, plus the cluster
// rollup when this server fronts a shard coordinator. The embedded
// Stats keeps the flat single-node schema stable for existing
// consumers.
type StatsReport struct {
	Stats
	Latency   *LatencyReport   `json:"latency,omitempty"`
	Admission *AdmissionReport `json:"admission,omitempty"`
	Cluster   *ClusterStats    `json:"cluster,omitempty"`
}

// StatsReport assembles the full /v1/stats document.
func (s *Server) StatsReport() StatsReport {
	rep := StatsReport{Stats: s.Stats(), Latency: s.Latency(), Admission: s.Admission()}
	if s.cluster != nil {
		cs := s.cluster.Stats()
		rep.Cluster = &cs
	}
	return rep
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsReport())
}

// clusterResponse is GET /v1/cluster: the shard topology.
type clusterResponse struct {
	Members  []MemberInfo        `json:"members"`
	Matrices []ShardedMatrixInfo `json:"matrices"`
}

func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("this server fronts no cluster"))
		return
	}
	writeJSON(w, http.StatusOK, clusterResponse{
		Members:  s.cluster.Members(),
		Matrices: s.cluster.Matrices(),
	})
}

// handleMetrics serves the Prometheus text exposition (version 0.0.4)
// through obs.Expositor, the writer whose output obs.ParseExposition
// round-trips in the tests: counters and gauges for the serving state,
// per-matrix roofline attribution gauges, and — when observability is on
// — proper histogram families (_bucket/_sum/_count with cumulative le
// bounds) for the endpoint, stage, and matrix latency surfaces.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	e := obs.NewExpositor(w)
	e.Counter("spmv_serve_requests_total", "Mul requests admitted.", float64(st.Requests))
	e.Counter("spmv_serve_sweeps_total", "Kernel sweeps executed.", float64(st.Sweeps))
	e.Counter("spmv_serve_fused_sweeps_total", "Sweeps that coalesced >= 2 requests.", float64(st.FusedSweeps))
	e.Counter("spmv_serve_fused_requests_total", "Requests served by fused sweeps.", float64(st.FusedRequests))
	e.Counter("spmv_serve_single_fallbacks_total", "Requests served alone, as width-1 sweeps on the fused path.", float64(st.SingleFallbacks))
	e.Gauge("spmv_serve_matrices_registered", "Matrices in the registry.", float64(st.Registered))
	e.Counter("spmv_serve_compiles_total", "Tuner+compile runs (operator-cache misses).", float64(st.Compiles))
	e.Counter("spmv_serve_compile_hits_total", "Operator-cache hits.", float64(st.CompileHits))
	e.Counter("spmv_serve_retune_evals_total", "Drifted matrices shadow-benchmarked by the re-tuner.", float64(st.RetuneEvals))
	e.Counter("spmv_serve_retune_promotions_total", "Re-tuned operators promoted to serving.", float64(st.RetunePromotions))
	e.Counter("spmv_serve_retune_rejections_total", "Re-tune candidates rejected by the shadow benchmark.", float64(st.RetuneRejections))
	e.Counter("spmv_serve_solve_sessions_total", "Solver sessions created.", float64(st.SolveSessions))
	e.Counter("spmv_serve_solve_iters_total", "Solver iterations executed (each one width-1 sweep).", float64(st.SolveIters))
	e.Counter("spmv_serve_patches_total", "PATCH batches applied.", float64(st.Patches))
	e.Counter("spmv_serve_deltas_applied_total", "Individual COO deltas applied.", float64(st.DeltasApplied))
	e.Counter("spmv_serve_recompactions_total", "Delta logs folded into a fresh tuned base.", float64(st.Recompactions))
	e.Counter("spmv_serve_sym_demotions_total", "Symmetric matrices demoted to general by a mutation.", float64(st.SymDemotions))
	e.Counter("spmv_serve_deletes_total", "Matrices torn down via DELETE.", float64(st.Deletes))
	e.Counter("spmv_serve_overlay_bytes_total", "Modeled overlay-pass DRAM bytes moved by sweeps over mutated matrices.", float64(st.OverlayBytes))
	s.sessMu.Lock()
	resident := len(s.sessions)
	s.sessMu.Unlock()
	e.Gauge("spmv_serve_solve_sessions_resident", "Solver sessions resident (running or uncollected).", float64(resident))
	e.Counter("spmv_serve_matrix_bytes_total", "Modeled matrix-stream DRAM bytes moved.", float64(st.MatrixBytes))
	e.Counter("spmv_serve_source_bytes_total", "Modeled source-vector DRAM bytes moved.", float64(st.SourceBytes))
	e.Counter("spmv_serve_dest_bytes_total", "Modeled destination-vector DRAM bytes moved.", float64(st.DestBytes))
	e.Counter("spmv_serve_saved_bytes_total", "Matrix-stream bytes avoided by fusion.", float64(st.SavedBytes))
	var widths []obs.Sample
	for wd, n := range st.FusedWidthHist {
		if n > 0 {
			widths = append(widths, obs.Sample{
				Labels: map[string]string{"width": strconv.Itoa(wd)}, Value: float64(n),
			})
		}
	}
	e.CounterVec("spmv_serve_fused_width_sweeps_total", "Sweeps by fused width.", widths)

	// Roofline attribution per matrix: modeled bytes over measured sweep
	// seconds, and that bandwidth as a fraction of the configured
	// sustained-DRAM reference. Attribution is per serving generation —
	// the gauges reflect the current operator's own sweeps.
	var achieved, ratio, gens, overlay []obs.Sample
	for _, entry := range s.reg.List() {
		sv := entry.cur.Load()
		if sv == nil {
			continue
		}
		rs := sv.roof.Stats(s.cfg.RooflineGBs)
		labels := map[string]string{"id": entry.ID, "kernel": sv.op.KernelName()}
		gens = append(gens, obs.Sample{Labels: map[string]string{"id": entry.ID}, Value: float64(sv.gen)})
		if sv.ovBytes > 0 {
			overlay = append(overlay, obs.Sample{Labels: map[string]string{"id": entry.ID}, Value: float64(sv.ovBytes)})
		}
		if rs.Sweeps == 0 {
			continue
		}
		achieved = append(achieved, obs.Sample{Labels: labels, Value: rs.AchievedGBs})
		ratio = append(ratio, obs.Sample{Labels: labels, Value: rs.ModelRatio})
	}
	e.GaugeVec("spmv_serve_matrix_generation", "Serving snapshot generation (re-tune promotions).", gens)
	e.GaugeVec("spmv_serve_matrix_overlay_bytes", "Modeled per-sweep overlay cost of the pending delta log.", overlay)
	e.GaugeVec("spmv_serve_matrix_achieved_gbs", "Measured-vs-modeled roofline: modeled bytes over measured sweep seconds.", achieved)
	e.GaugeVec("spmv_serve_matrix_roofline_ratio", "Achieved bandwidth over the configured sustained-DRAM reference.", ratio)

	if s.obs != nil {
		e.HistogramFamily("spmv_http_request_duration_seconds",
			"HTTP request latency by endpoint.", s.obs.endpoint.Series("endpoint"))
		e.HistogramFamily("spmv_serve_stage_duration_seconds",
			"Serving pipeline stage latency (decode, queue, interleave, execute, gather, encode, solve_iter, solve_sweep).",
			s.obs.stage.Series("stage"))
		e.HistogramFamily("spmv_serve_mul_duration_seconds",
			"Mul latency by matrix, admission to reply.", s.obs.matrix.Series("id"))
		e.HistogramFamily("spmv_serve_class_duration_seconds",
			"Mul latency by SLO class, admission to reply (failures included).",
			s.obs.class.Series("class"))
	}

	if rep := s.Admission(); rep != nil {
		var served, rejected, servedBytes, queued []obs.Sample
		for name, ts := range rep.Tenants {
			l := map[string]string{"tenant": name}
			served = append(served, obs.Sample{Labels: l, Value: float64(ts.ServedRequests)})
			rejected = append(rejected, obs.Sample{Labels: l, Value: float64(ts.RejectedRequests)})
			servedBytes = append(servedBytes, obs.Sample{Labels: l, Value: float64(ts.ServedBytes)})
			queued = append(queued, obs.Sample{Labels: l, Value: float64(ts.QueuedBytes)})
		}
		e.CounterVec("spmv_sched_tenant_served_requests_total", "Requests (and solve sessions) served, by tenant.", served)
		e.CounterVec("spmv_sched_tenant_rejected_requests_total", "Requests rejected by the tenant's token bucket.", rejected)
		e.CounterVec("spmv_sched_tenant_served_bytes_total", "Modeled DRAM bytes executed, by tenant (the Jain allocations).", servedBytes)
		e.GaugeVec("spmv_sched_tenant_queued_bytes", "Modeled bytes admitted but not yet executing, by tenant.", queued)
		var cServed, cRejected, cExpired, cQueued []obs.Sample
		for name, cs := range rep.Classes {
			l := map[string]string{"class": name}
			cServed = append(cServed, obs.Sample{Labels: l, Value: float64(cs.ServedRequests)})
			cRejected = append(cRejected, obs.Sample{Labels: l, Value: float64(cs.RejectedRequests)})
			cExpired = append(cExpired, obs.Sample{Labels: l, Value: float64(cs.ExpiredRequests)})
			cQueued = append(cQueued, obs.Sample{Labels: l, Value: float64(cs.QueuedBytes)})
		}
		e.CounterVec("spmv_sched_class_served_requests_total", "Requests served, by SLO class.", cServed)
		e.CounterVec("spmv_sched_class_rejected_requests_total", "Requests rejected at admission, by SLO class.", cRejected)
		e.CounterVec("spmv_sched_class_expired_requests_total", "Requests shed on an expired deadline, by SLO class.", cExpired)
		e.GaugeVec("spmv_sched_class_queued_bytes", "Modeled bytes waiting at the priority gate, by SLO class.", cQueued)
		e.Gauge("spmv_sched_jain_fairness", "Jain fairness index over per-tenant served modeled bytes.", rep.JainFairness)
	}

	if s.cluster != nil {
		cs := s.cluster.Stats()
		e.Gauge("spmv_cluster_members", "Cluster member nodes.", float64(cs.Members))
		e.Gauge("spmv_cluster_members_ejected", "Members ejected from routing.", float64(cs.Ejected))
		e.Gauge("spmv_cluster_matrices", "Sharded matrices served.", float64(cs.Matrices))
		e.Counter("spmv_cluster_requests_total", "Sharded Mul requests admitted.", float64(cs.Requests))
		e.Counter("spmv_cluster_scatters_total", "Band sub-requests issued.", float64(cs.Scatters))
		e.Counter("spmv_cluster_retries_total", "Failed band sub-request attempts.", float64(cs.Retries))
		e.Counter("spmv_cluster_failovers_total", "Bands served by a fallback replica.", float64(cs.Failovers))
		e.Counter("spmv_cluster_ejections_total", "Member ejections.", float64(cs.Ejections))
		e.Counter("spmv_cluster_probes_total", "Half-open probe trials issued to ejected members.", float64(cs.Probes))
		e.Counter("spmv_cluster_recoveries_total", "Ejected members restored to rotation by a probe.", float64(cs.Recoveries))
		e.Counter("spmv_cluster_rebalances_total", "Band-topology swaps (manual and skew-triggered).", float64(cs.Rebalances))
		var rInflight, rServed, rRequests, rFailRate []obs.Sample
		for _, ms := range cs.Member {
			l := map[string]string{"member": ms.Name}
			rInflight = append(rInflight, obs.Sample{Labels: l, Value: float64(ms.InFlightBytes)})
			rServed = append(rServed, obs.Sample{Labels: l, Value: float64(ms.ServedBytes)})
			rRequests = append(rRequests, obs.Sample{Labels: l, Value: float64(ms.Requests)})
			rFailRate = append(rFailRate, obs.Sample{Labels: l, Value: ms.FailureRate})
		}
		e.GaugeVec("spmv_cluster_route_inflight_bytes", "Modeled sweep bytes dispatched and not yet completed, by member.", rInflight)
		e.CounterVec("spmv_cluster_route_served_bytes_total", "Modeled sweep bytes served, by member (the rebalance skew signal).", rServed)
		e.CounterVec("spmv_cluster_route_requests_total", "Successful band sub-requests, by member.", rRequests)
		e.GaugeVec("spmv_cluster_route_failure_rate", "Decayed windowed failure rate, by member.", rFailRate)
	}
}
