// Package cluster turns shard = goroutine into node = config change: a
// coordinator routes whole collections across N backend nodes, each
// node running its own service.Service, with every exchange behind the
// Transport interface. Two transports ship — ChanTransport (in-process
// message passing, which the tests and benchmarks build) and
// TCPTransport (length-prefixed CRC-framed messages reusing
// internal/wal's framing, so the wire format is versioned and
// integrity-checked the same way the on-disk log is; ecs-serve's
// cluster modes use it). The discipline is message-passing-only: the
// coordinator and its nodes share no memory, which is what makes every
// later scale-out step a transport swap instead of a rewrite.
//
// Placement follows the sample-based splitter playbook of the parallel
// sorting literature: a cheap estimator samples each new collection's
// spec for size and class skew, and collections that look heavy are
// biased onto the least-loaded node instead of their hash slot (see
// placement.go). Everything else is FNV(key) → node, mirroring the
// service's own key → shard hash one level up.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"ecsort/internal/service"
)

// Wire stream identity: every TCP connection opens with a 16-byte
// header (magic "ECSC", version, zero tag) from each side, built and
// checked by internal/wal's exported header helpers. A version this
// build does not speak closes the connection — same reject-unknown
// discipline as the WAL segment reader.
const (
	wireMagic = "ECSC"
	// WireVersion is the cluster protocol version. Version 1: JSON
	// request and success bodies, wal-framed. Version 2: every success
	// body is service.AppendJSON's indented encoding, so the
	// coordinator relays it to HTTP clients unread. Version 3: request
	// arguments are binary (encodeRequest), and the create and
	// resilience replies are the HTTP bodies too. Peers must match
	// exactly: the handshake refuses any other version.
	WireVersion uint16 = 3
)

// op is a request's first byte: a service.Op for the nine collection
// operations, or one of the node-only fleet operations below. Every
// success body is service.AppendJSON bytes; for the collection
// operations it is the HTTP response body.
type op byte

const (
	opList   = op(service.OpResilience) + 1 // no key, no args → []service.CollectionInfo
	opHealth = opList + 1                   // no key, no args → nodeHealth
)

// flagFlush is the request flags bit carrying service.Args.Flush.
const flagFlush = 1

// nodeHealth is one backend's self-report, aggregated by the
// coordinator's readiness and metrics endpoints.
type nodeHealth struct {
	Collections int               `json:"collections"`
	Degraded    []DegradedBackend `json:"degraded,omitempty"`
	UptimeSecs  float64           `json:"uptime_seconds"`
	Corrupt     int64             `json:"corrupt_frames,omitempty"`
}

// DegradedBackend is one degraded collection in a node's health report.
type DegradedBackend struct {
	Key               string  `json:"key"`
	Breaker           string  `json:"breaker"`
	RetryAfterSeconds float64 `json:"retry_after_seconds"`
}

// RemoteError is a service error that crossed the wire: the owning node
// answered, but with a failure. Status preserves the node's
// service.StatusOf mapping, which StatusOf on the coordinator keeps
// (through HTTPStatus), so its HTTP layer relays the status verbatim,
// and Go callers can still switch on it. RetryAfter is non-zero only
// for degraded-collection rejections (503 + Retry-After).
type RemoteError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string { return e.Msg }

// HTTPStatus is the node's status for the failure.
func (e *RemoteError) HTTPStatus() int { return e.Status }

// encodeRequest appends one request to dst:
//
//	op[u8] keyLen[uvarint] key flags[u8] element[varint] count[uvarint] items[count × varint] spec
//
// flags bit 0 is a.Flush; element is a.Element (signed: a negative path
// element must reach the node to get the node's 400); spec is the JSON
// of a.Spec for service.OpCreate or a.Resilience for
// service.OpResilience, absent for every other op.
func encodeRequest(dst []byte, o op, key string, a service.Args) ([]byte, error) {
	dst = slices.Grow(dst, 3+3*binary.MaxVarintLen64+len(key)+3*len(a.Items))
	dst = append(dst, byte(o))
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	var flags byte
	if a.Flush {
		flags |= flagFlush
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, int64(a.Element))
	dst = binary.AppendUvarint(dst, uint64(len(a.Items)))
	for _, x := range a.Items {
		dst = binary.AppendVarint(dst, int64(x))
	}
	var spec any
	switch service.Op(o) {
	case service.OpCreate:
		spec = a.Spec
	case service.OpResilience:
		spec = a.Resilience
	default:
		return dst, nil
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("%w: unencodable spec: %v", service.ErrBadSpec, err)
	}
	return append(dst, b...), nil
}

// decodeRequest parses a request payload back into its parts. Items is
// sized only after its count is checked against the bytes left (each
// item takes at least one), so a forged count cannot allocate past the
// payload's length.
func decodeRequest(p []byte) (op, string, service.Args, error) {
	var a service.Args
	if len(p) < 1 {
		return 0, "", a, errors.New("cluster: empty request")
	}
	o := op(p[0])
	if o < op(service.OpCreate) || o > opHealth {
		return 0, "", a, fmt.Errorf("cluster: unknown op %d", p[0])
	}
	rest := p[1:]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || klen > uint64(len(rest)-n) {
		return 0, "", a, errors.New("cluster: bad key length")
	}
	rest = rest[n:]
	key := string(rest[:klen])
	rest = rest[klen:]
	if len(rest) < 1 || rest[0]&^flagFlush != 0 {
		return 0, "", a, errors.New("cluster: bad request flags")
	}
	a.Flush = rest[0]&flagFlush != 0
	rest = rest[1:]
	var err error
	if a.Element, rest, err = decodeInt(rest); err != nil {
		return 0, "", a, fmt.Errorf("cluster: bad element: %w", err)
	}
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > uint64(len(rest)-n) {
		return 0, "", a, errors.New("cluster: bad item count")
	}
	rest = rest[n:]
	if count > 0 {
		a.Items = make([]int, count)
		for i := range a.Items {
			if a.Items[i], rest, err = decodeInt(rest); err != nil {
				return 0, "", a, fmt.Errorf("cluster: bad item %d: %w", i, err)
			}
		}
	}
	switch service.Op(o) {
	case service.OpCreate:
		a.Spec = new(service.OracleSpec)
		err = json.Unmarshal(rest, a.Spec)
	case service.OpResilience:
		a.Resilience = new(service.ResilienceSpec)
		err = json.Unmarshal(rest, a.Resilience)
	default:
		if len(rest) > 0 {
			err = fmt.Errorf("%d trailing bytes", len(rest))
		}
	}
	if err != nil {
		return 0, "", a, fmt.Errorf("cluster: bad request body: %w", err)
	}
	return o, key, a, nil
}

// decodeInt reads one varint that fits an int.
func decodeInt(p []byte) (int, []byte, error) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, p, errors.New("truncated varint")
	}
	if int64(int(v)) != v {
		return 0, p, errors.New("out of range")
	}
	return int(v), p[n:], nil
}

// Response payloads: [0][body] on success, or
// [1][uvarint status][uvarint retryAfterNanos][message] on error.
const (
	respOK  = 0
	respErr = 1
)

// encodeOK appends a success response carrying body.
func encodeOK(dst, body []byte) []byte {
	dst = append(dst, respOK)
	return append(dst, body...)
}

// encodeErr appends an error response: the node's HTTP status mapping,
// the degraded retry-after (0 otherwise), and the error text.
func encodeErr(dst []byte, status int, retryAfter time.Duration, msg string) []byte {
	dst = append(dst, respErr)
	dst = binary.AppendUvarint(dst, uint64(status))
	dst = binary.AppendUvarint(dst, uint64(retryAfter))
	return append(dst, msg...)
}

// decodeResponse returns the success body, or the remote failure as a
// *RemoteError. A malformed response is a protocol error (the caller
// should drop the connection), returned as a plain error.
func decodeResponse(p []byte) ([]byte, error) {
	if len(p) < 1 {
		return nil, fmt.Errorf("cluster: empty response")
	}
	switch p[0] {
	case respOK:
		return p[1:], nil
	case respErr:
		rest := p[1:]
		status, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("cluster: bad error status")
		}
		rest = rest[n:]
		ra, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("cluster: bad error retry-after")
		}
		rest = rest[n:]
		if status < 100 || status > 599 {
			return nil, fmt.Errorf("cluster: impossible error status %d", status)
		}
		return nil, &RemoteError{Status: int(status), Msg: string(rest), RetryAfter: time.Duration(ra)}
	default:
		return nil, fmt.Errorf("cluster: unknown response tag %d", p[0])
	}
}
