package server

import (
	"net/http"
	"strings"

	spmv "repro"
)

// Transport is one shard member node as seen by the coordinator: the
// minimal surface the scatter/gather layer needs — register a row band,
// multiply against it, snapshot its counters. LocalTransport serves the
// in-process topology (one process modeling a fleet, like internal/mpi
// models ranks); HTTPTransport fronts a real remote spmv-serve node.
type Transport interface {
	// Name labels the member in topology and stats views.
	Name() string
	// Register ingests a matrix band under the given id on the member and
	// returns the member's view of it (dimensions are validated by the
	// coordinator against the band it sent). Bands are always registered
	// with general storage — a band that happened to be symmetric would
	// otherwise pick a different summation order than its twin rows in a
	// single-node serve, breaking the fleet's bitwise topology
	// invariance.
	Register(id, name string, m *spmv.Matrix) (MatrixInfo, error)
	// Mul computes y = A·x against a previously registered band.
	Mul(id string, x []float64) ([]float64, error)
	// Unregister tears down a previously registered band on the member,
	// releasing its operator. Unknown ids are an error (the
	// coordinator treats it as best-effort cleanup).
	Unregister(id string) error
	// Stats snapshots the member's serving counters for the cluster rollup.
	Stats() (Stats, error)
}

// LocalTransport adapts an in-process Server to the Transport interface.
// The member keeps its full serving stack — compiled operator, adaptive
// batcher, sweep pool — so concurrent scattered sub-requests against one
// band still coalesce into fused multi-RHS sweeps on the member.
type LocalTransport struct {
	label string
	s     *Server
}

// NewLocalTransport wraps a member server under the given label.
func NewLocalTransport(label string, s *Server) *LocalTransport {
	return &LocalTransport{label: label, s: s}
}

// Name returns the member label.
func (t *LocalTransport) Name() string { return t.label }

// Register ingests the band on the member server, pinned to general
// storage (see Transport.Register).
func (t *LocalTransport) Register(id, name string, m *spmv.Matrix) (MatrixInfo, error) {
	general := false
	return t.s.RegisterOpts(id, name, m, RegisterOptions{Symmetric: &general})
}

// Mul multiplies against the member's band.
func (t *LocalTransport) Mul(id string, x []float64) ([]float64, error) {
	return t.s.Mul(id, x)
}

// Unregister tears down the member's band.
func (t *LocalTransport) Unregister(id string) error {
	_, err := t.s.DeleteMatrix(id)
	return err
}

// Stats snapshots the member's counters.
func (t *LocalTransport) Stats() (Stats, error) { return t.s.Stats(), nil }

// HTTPTransport talks to a remote spmv-serve member over its v1 HTTP API
// through an HTTPClient, so band ids are path-escaped and member errors
// come back with the sentinels the member classified them with. Bands are
// shipped as inline MatrixMarket documents (written at %.17g, so float64
// values survive the wire bit-exactly and sharded results stay bitwise
// identical to single-node serving).
type HTTPTransport struct {
	hc *HTTPClient
}

// NewHTTPTransport returns a transport for the member at base (scheme and
// host:port). A nil client gets a 60-second timeout — without one, a
// wedged member that accepts TCP but never answers would block cluster
// Muls and stats polls forever, and the coordinator's retry/eject
// machinery (which acts on returned errors) would never fire. Pass an
// explicit client to tune the timeout, e.g. for very large band uploads.
func NewHTTPTransport(base string, client *http.Client) *HTTPTransport {
	return &HTTPTransport{hc: NewHTTPClient(base, client)}
}

// Name returns the member's base URL.
func (t *HTTPTransport) Name() string { return t.hc.base }

// Register ships the band as MatrixMarket and registers it remotely,
// pinned to general storage (see Transport.Register).
func (t *HTTPTransport) Register(id, name string, m *spmv.Matrix) (MatrixInfo, error) {
	var doc strings.Builder
	if err := m.WriteMatrixMarket(&doc); err != nil {
		return MatrixInfo{}, err
	}
	general := false
	var info MatrixInfo
	err := t.hc.do(http.MethodPost, "/v1/matrices", registerRequest{
		ID: id, Name: name, MatrixMarket: doc.String(), Symmetric: &general,
	}, &info)
	return info, err
}

// Mul multiplies against the member's band in the binary tier, so the
// gathered band rows are the member's bits exactly.
func (t *HTTPTransport) Mul(id string, x []float64) ([]float64, error) {
	return t.hc.MulOpts(id, x, MulOptions{})
}

// Unregister deletes the band on the remote member.
func (t *HTTPTransport) Unregister(id string) error {
	_, err := t.hc.DeleteMatrix(id)
	return err
}

// Stats fetches the member's counter snapshot.
func (t *HTTPTransport) Stats() (Stats, error) {
	rep, err := t.hc.StatsReport()
	return rep.Stats, err
}
