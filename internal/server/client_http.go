// The unified client API: one interface over the serving subsystem that
// both the in-process *Server and the HTTP client implement, with request
// options (tenant, SLO class, deadline) carried as typed structs instead
// of growing positional signatures. Code written against API runs
// unchanged in-process (tests, embedded serving) and over the wire
// (tools, load generators) — examples/slo-loadgen drives both through
// the same functions.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// API is the versioned request surface of the serving subsystem: the
// options-struct methods shared by the in-process *Server and HTTPClient.
// The deprecated positional signatures (Mul, Solve) are thin wrappers
// over these and are not part of the interface.
type API interface {
	// RegisterSuite generates and registers a Table 3 suite twin.
	RegisterSuite(id, suite string, scale float64, seed int64) (MatrixInfo, error)
	// MulOpts computes y = A·x under the request options.
	MulOpts(id string, x []float64, opts MulOptions) ([]float64, error)
	// Patch applies one atomic, ordered batch of COO deltas to a
	// registered (non-sharded) matrix.
	Patch(id string, deltas []Delta) (PatchResult, error)
	// DeleteMatrix tears a matrix down: cancels and drains its solver
	// sessions, evicts its caches, and (sharded) unregisters its bands.
	DeleteMatrix(id string) (DeleteResult, error)
	// SolveOpts creates a solver session under the admission options.
	SolveOpts(id string, req SolveRequest, opts SolveOptions) (SolveStatus, error)
	// SolveStatus polls a session, optionally waiting for it to finish.
	SolveStatus(sid string, wait time.Duration) (SolveStatus, error)
	// CancelSolve cancels and removes a session.
	CancelSolve(sid string) (SolveStatus, error)
	// StatsReport snapshots the full stats document (counters, latency,
	// admission, cluster).
	StatsReport() (StatsReport, error)
}

// *Server returns StatsReport without an error; apiServer adapts it so
// both transports satisfy API verbatim.
type apiServer struct{ *Server }

func (a apiServer) StatsReport() (StatsReport, error) { return a.Server.StatsReport(), nil }

// API returns the server's in-process implementation of the unified
// client interface.
func (s *Server) API() API { return apiServer{s} }

var (
	_ API = apiServer{}
	_ API = (*HTTPClient)(nil)
)

// HTTPClient is the wire implementation of API against a remote
// spmv-serve node. Error responses are mapped back to the server's
// sentinel errors via the envelope's machine-readable code — an
// admission rejection comes back as an *AdmissionError carrying the
// Retry-After estimate, exactly as the in-process path returns it, so
// callers classify failures with errors.Is/As on either transport.
type HTTPClient struct {
	base string
	c    *http.Client
}

// NewHTTPClient returns a client for the server at base (scheme and
// host:port). A nil http.Client gets a 60-second timeout.
func NewHTTPClient(base string, client *http.Client) *HTTPClient {
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second}
	}
	return &HTTPClient{base: strings.TrimRight(base, "/"), c: client}
}

// sentinelByCode inverts the error envelope's code strings back to the
// sentinels the server classified with.
var sentinelByCode = map[string]error{
	"unknown_matrix":     ErrUnknownMatrix,
	"already_registered": ErrAlreadyRegistered,
	"not_symmetric":      ErrNotSymmetric,
	"member_fault":       ErrMemberFault,
	"unknown_session":    ErrUnknownSession,
	"too_many_sessions":  ErrTooManySessions,
	"deadline_exceeded":  ErrDeadlineExceeded,
	"method_not_allowed": ErrMethodNotAllowed,
	"sharded_immutable":  ErrShardedImmutable,
	"non_finite_result":  ErrNonFiniteResult,
}

// apiError rebuilds a typed error from one error-envelope response.
func (hc *HTTPClient) apiError(r *http.Response) error {
	detail := fmt.Sprintf("status %d", r.StatusCode)
	var e errorResponse
	if json.NewDecoder(r.Body).Decode(&e) == nil && e.Error.Message != "" {
		detail = e.Error.Message
	}
	if e.Error.Code == "admission_limited" {
		// The envelope body carries the rejection's structured details at
		// full resolution; the Retry-After header (whole seconds, rounded
		// up) is only a fallback for responses from older servers, and a
		// one-second guess the last resort — never a replacement for a
		// sub-second estimate the server did provide.
		ae := &AdmissionError{Tenant: e.Error.Tenant}
		switch {
		case e.Error.RetryAfterMS > 0:
			ae.RetryAfter = time.Duration(e.Error.RetryAfterMS * float64(time.Millisecond))
		default:
			ae.RetryAfter = time.Second
			if secs, err := strconv.Atoi(r.Header.Get("Retry-After")); err == nil && secs > 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return fmt.Errorf("server %s: %s: %w", hc.base, detail, ae)
	}
	if sentinel, ok := sentinelByCode[e.Error.Code]; ok {
		return fmt.Errorf("%w: server %s: %s", sentinel, hc.base, detail)
	}
	return fmt.Errorf("server %s: %s", hc.base, detail)
}

// do runs one JSON round trip: method+path with an optional request
// body, decoding the response into resp when the status is 2xx.
func (hc *HTTPClient) do(method, path string, req, resp any) error {
	var body *bytes.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	} else {
		body = bytes.NewReader(nil)
	}
	httpReq, err := http.NewRequest(method, hc.base+path, body)
	if err != nil {
		return err
	}
	if req != nil {
		httpReq.Header.Set("Content-Type", "application/json")
	}
	r, err := hc.c.Do(httpReq)
	if err != nil {
		return fmt.Errorf("server %s: %w", hc.base, err)
	}
	defer r.Body.Close()
	if r.StatusCode >= 300 {
		return hc.apiError(r)
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// RegisterSuite registers a generated suite twin on the remote server.
func (hc *HTTPClient) RegisterSuite(id, suite string, scale float64, seed int64) (MatrixInfo, error) {
	var info MatrixInfo
	err := hc.do(http.MethodPost, "/v1/matrices",
		registerRequest{ID: id, Suite: suite, Scale: scale, Seed: seed}, &info)
	return info, err
}

// MulOpts computes y = A·x on the remote server under the request
// options (tenant admission, SLO class, deadline). x and y cross the wire
// in the binary tier, so every IEEE-754 value arrives bit for bit.
func (hc *HTTPClient) MulOpts(id string, x []float64, opts MulOptions) ([]float64, error) {
	req, err := newBinaryMul(hc.base+"/v1/matrices/"+url.PathEscape(id)+"/mul"+mulQuery(opts), x)
	if err != nil {
		return nil, err
	}
	r, err := hc.c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("server %s: %w", hc.base, err)
	}
	defer r.Body.Close()
	if r.StatusCode >= 300 {
		return nil, hc.apiError(r)
	}
	return readFloats(r)
}

// Mul computes y = A·x with zero options.
//
// Deprecated: use MulOpts.
func (hc *HTTPClient) Mul(id string, x []float64) ([]float64, error) {
	return hc.MulOpts(id, x, MulOptions{})
}

// Patch applies one atomic batch of COO deltas on the remote server. A
// sharded target comes back as ErrShardedImmutable; hitting a server
// predating the endpoint comes back as ErrMethodNotAllowed.
func (hc *HTTPClient) Patch(id string, deltas []Delta) (PatchResult, error) {
	var res PatchResult
	err := hc.do(http.MethodPatch, "/v1/matrices/"+url.PathEscape(id), patchRequest{Deltas: deltas}, &res)
	return res, err
}

// DeleteMatrix tears the matrix down on the remote server.
func (hc *HTTPClient) DeleteMatrix(id string) (DeleteResult, error) {
	var res DeleteResult
	err := hc.do(http.MethodDelete, "/v1/matrices/"+url.PathEscape(id), nil, &res)
	return res, err
}

// SolveOpts creates a solver session on the remote server; non-empty
// options override the request's own tenant/class fields.
func (hc *HTTPClient) SolveOpts(id string, req SolveRequest, opts SolveOptions) (SolveStatus, error) {
	if opts.Tenant != "" {
		req.Tenant = opts.Tenant
	}
	if opts.Class != "" {
		req.Class = opts.Class
	}
	var st SolveStatus
	err := hc.do(http.MethodPost, "/v1/matrices/"+url.PathEscape(id)+"/solve", req, &st)
	return st, err
}

// SolveStatus polls a session, optionally blocking server-side up to
// wait for it to leave running.
func (hc *HTTPClient) SolveStatus(sid string, wait time.Duration) (SolveStatus, error) {
	path := "/v1/solve/" + url.PathEscape(sid)
	if wait > 0 {
		path += "?wait=" + url.QueryEscape(wait.String())
	}
	var st SolveStatus
	err := hc.do(http.MethodGet, path, nil, &st)
	return st, err
}

// CancelSolve cancels and removes a session.
func (hc *HTTPClient) CancelSolve(sid string) (SolveStatus, error) {
	var st SolveStatus
	err := hc.do(http.MethodDelete, "/v1/solve/"+url.PathEscape(sid), nil, &st)
	return st, err
}

// StatsReport fetches the full /v1/stats document.
func (hc *HTTPClient) StatsReport() (StatsReport, error) {
	var rep StatsReport
	err := hc.do(http.MethodGet, "/v1/stats", nil, &rep)
	return rep, err
}
