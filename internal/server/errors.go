package server

import "errors"

// Sentinel errors classifying serving failures. The HTTP layer maps them
// to status codes with errors.Is — not substring matching — so wrapped
// causes keep their classification across layers, and HTTPClient (which
// HTTPTransport talks to members through) restores them from the error
// envelope's code so the classification survives the wire too.
var (
	// ErrUnknownMatrix: the requested matrix id is not registered (404).
	ErrUnknownMatrix = errors.New("server: unknown matrix")
	// ErrAlreadyRegistered: the id is taken; entries are immutable (409).
	ErrAlreadyRegistered = errors.New("server: already registered")
	// ErrNotSymmetric: symmetric storage was required for a matrix that is
	// not numerically symmetric (400).
	ErrNotSymmetric = errors.New("server: matrix is not symmetric")
	// ErrMemberFault: a shard member or its transport failed while serving
	// an otherwise valid request — the fleet's fault, not the client's
	// (502).
	ErrMemberFault = errors.New("server: member fault")
	// ErrUnknownSession: the requested solver-session id is not resident
	// (404).
	ErrUnknownSession = errors.New("server: unknown solve session")
	// ErrTooManySessions: the resident-session cap is reached and every
	// session is still running (429).
	ErrTooManySessions = errors.New("server: too many solve sessions")
	// ErrAdmissionLimited: the tenant's token bucket cannot cover the
	// request's modeled cost yet (429 with Retry-After). Errors carrying
	// this classification are *AdmissionError values holding the tenant
	// and the bucket's refill estimate.
	ErrAdmissionLimited = errors.New("server: admission limited")
	// ErrDeadlineExceeded: the request's deadline expired while it was
	// queued, so it was shed instead of executed (504).
	ErrDeadlineExceeded = errors.New("server: deadline exceeded")
	// ErrMethodNotAllowed: the path names a known resource but the method
	// is not one it serves (405 with an Allow header).
	ErrMethodNotAllowed = errors.New("server: method not allowed")
	// ErrShardedImmutable: the matrix is cluster-sharded, whose band
	// registrations are immutable — PATCH is only served by local entries
	// (409).
	ErrShardedImmutable = errors.New("server: sharded matrices are immutable")
	// ErrNonFiniteResult: a Mul result holds ±Inf or NaN, which the JSON
	// tier cannot spell; the binary tier carries it (422).
	ErrNonFiniteResult = errors.New("server: non-finite result")
)
