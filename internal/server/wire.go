package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// The binary tier of POST /v1/matrices/{id}/mul. JSON ({"x":[…]} in,
// {"y":[…]} out) stays the compatibility tier for humans and curl; the
// binary tier carries a vector as its bare little-endian IEEE-754
// float64 bytes, 8 per element, so every value (±0, subnormals, ±Inf,
// NaN payloads) crosses bit for bit and nothing is parsed. A binary
// request carries its options in the query string (see mulQuery).
const mimeOctetStream = "application/octet-stream"

// isOctetStream reports whether a media type (Content-Type, or one range
// of an Accept list), parameters ignored, names the binary tier.
func isOctetStream(mediaType string) bool {
	mt, _, _ := strings.Cut(mediaType, ";")
	return strings.EqualFold(strings.TrimSpace(mt), mimeOctetStream)
}

// acceptsOctetStream reports whether an Accept header lists the binary
// tier among its media ranges.
func acceptsOctetStream(accept string) bool {
	for accept != "" {
		var rng string
		rng, accept, _ = strings.Cut(accept, ",")
		if isOctetStream(rng) {
			return true
		}
	}
	return false
}

// appendFloats appends the binary encoding of v to dst.
func appendFloats(dst []byte, v []float64) []byte {
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// decodeFloats decodes a binary vector body. A length that is not a
// whole number of float64s is an error.
func decodeFloats(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("binary vector body is %d bytes, not a multiple of 8", len(b))
	}
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v, nil
}

// mulQuery encodes the Mul options as the binary tier's query string
// (with its leading "?"), omitting zero values; parseMulQuery inverts it.
func mulQuery(opts MulOptions) string {
	q := url.Values{}
	if opts.Tenant != "" {
		q.Set("tenant", opts.Tenant)
	}
	if opts.Class != "" {
		q.Set("class", opts.Class)
	}
	if ms := int64(opts.Deadline / time.Millisecond); ms > 0 {
		q.Set("deadline_ms", strconv.FormatInt(ms, 10))
	}
	if opts.Affinity != "" {
		q.Set("affinity", opts.Affinity)
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// parseMulQuery decodes the binary tier's options as strictly as the JSON
// tier decodes its body: an unknown or repeated key, or a malformed,
// negative or overflowing deadline_ms, is an error.
func parseMulQuery(raw string) (MulOptions, error) {
	var opts MulOptions
	q, err := url.ParseQuery(raw)
	if err != nil {
		return opts, fmt.Errorf("bad query string: %w", err)
	}
	for k, vs := range q {
		if len(vs) != 1 {
			return opts, fmt.Errorf("query parameter %q given %d times", k, len(vs))
		}
		v := vs[0]
		switch k {
		case "tenant":
			opts.Tenant = v
		case "class":
			opts.Class = v
		case "affinity":
			opts.Affinity = v
		case "deadline_ms":
			ms, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return opts, fmt.Errorf("bad deadline_ms %q: %w", v, err)
			}
			if ms < 0 || ms > math.MaxInt64/int64(time.Millisecond) {
				return opts, fmt.Errorf("deadline_ms %d out of range", ms)
			}
			opts.Deadline = time.Duration(ms) * time.Millisecond
		default:
			return opts, fmt.Errorf("unknown query parameter %q", k)
		}
	}
	return opts, nil
}

// newBinaryMul builds a binary-tier Mul request for x that also asks for
// a binary reply.
func newBinaryMul(target string, x []float64) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(appendFloats(make([]byte, 0, 8*len(x)), x)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", mimeOctetStream)
	req.Header.Set("Accept", mimeOctetStream)
	return req, nil
}

// readFloats decodes a successful binary-tier reply.
func readFloats(r *http.Response) ([]float64, error) {
	if ct := r.Header.Get("Content-Type"); !isOctetStream(ct) {
		return nil, fmt.Errorf("mul reply has Content-Type %q, want %s", ct, mimeOctetStream)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("reading mul reply: %w", err)
	}
	return decodeFloats(body)
}
