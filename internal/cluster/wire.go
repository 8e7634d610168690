// Package cluster turns shard = goroutine into node = config change: a
// coordinator routes whole collections across N backend nodes, each
// node running its own service.Service, with every exchange behind the
// Transport interface. Two transports ship — ChanTransport (in-process
// message passing, the default single-binary mode) and TCPTransport
// (length-prefixed CRC-framed messages reusing internal/wal's framing,
// so the wire format is versioned and integrity-checked the same way
// the on-disk log is). The discipline is message-passing-only: the
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
	"fmt"
	"time"
)

// Wire stream identity: every TCP connection opens with a 16-byte
// header (magic "ECSC", version, zero tag) from each side, built and
// checked by internal/wal's exported header helpers. A version this
// build does not speak closes the connection — same reject-unknown
// discipline as the WAL segment reader.
const (
	wireMagic = "ECSC"
	// WireVersion is the cluster protocol version. Version 1: the op
	// set below, JSON bodies, wal-framed. Version 2: every success body
	// is service.AppendJSON's indented encoding, so the coordinator
	// relays the six read and write bodies (ingest, delete, invalidate,
	// classes, class-of, stats) to HTTP clients unread; a version 1
	// node's compact bodies would reach clients in a different format,
	// so the handshake refuses it.
	WireVersion uint16 = 2
)

// op identifies one request kind on the wire.
type op byte

// Request bodies are compact JSON; success bodies are service.AppendJSON
// bytes, which for the ops marked "relayed" are the HTTP response body.
const (
	opCreate     op = iota + 1 // body: service.OracleSpec JSON → CollectionInfo JSON
	opDrop                     // no body → no body
	opIngest                   // body: ingestArgs → service.IngestResult (relayed)
	opDelete                   // body: deleteArgs → service.ChurnResult (relayed)
	opInvalidate               // body: invalidateArgs → service.ChurnResult (relayed)
	opClasses                  // body: classArgs → service.Snapshot (relayed)
	opClassOf                  // body: classOfArgs → service.ClassView (relayed)
	opStats                    // no body → service.CollectionInfo with snapshot (relayed)
	opList                     // no body, no key → []service.CollectionInfo
	opHealth                   // no body, no key → nodeHealth
	opResilience               // body: service.ResilienceSpec JSON → no body
)

// Request argument bodies (JSON). Kept tiny and explicit so the wire
// contract is readable in one place.
type ingestArgs struct {
	Items []int `json:"items"`
	Flush bool  `json:"flush,omitempty"`
}

type deleteArgs struct {
	Element int `json:"element"`
}

type invalidateArgs struct {
	Class int  `json:"class"`
	Flush bool `json:"flush,omitempty"`
}

type classArgs struct {
	Fresh bool `json:"fresh,omitempty"`
}

type classOfArgs struct {
	Element int  `json:"element"`
	Fresh   bool `json:"fresh,omitempty"`
}

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
// answered, but with a failure. Status preserves the node's HTTP
// mapping so the coordinator's HTTP layer relays it verbatim, and Go
// callers can still switch on it. RetryAfter is non-zero only for
// degraded-collection rejections (503 + Retry-After).
type RemoteError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string { return e.Msg }

// encodeRequest appends one request — [op][uvarint keylen][key][body] —
// to dst and returns the extended slice. The body is opaque here
// (JSON per the op table above).
func encodeRequest(dst []byte, o op, key string, body []byte) []byte {
	dst = append(dst, byte(o))
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return append(dst, body...)
}

// decodeRequest splits a request payload back into its parts. The
// returned key and body alias p.
func decodeRequest(p []byte) (op, string, []byte, error) {
	if len(p) < 2 {
		return 0, "", nil, fmt.Errorf("cluster: request too short (%d bytes)", len(p))
	}
	o := op(p[0])
	if o < opCreate || o > opResilience {
		return 0, "", nil, fmt.Errorf("cluster: unknown op %d", p[0])
	}
	rest := p[1:]
	klen, n := binary.Uvarint(rest)
	if n <= 0 || klen > uint64(len(rest)-n) {
		return 0, "", nil, fmt.Errorf("cluster: bad key length")
	}
	rest = rest[n:]
	return o, string(rest[:klen]), rest[klen:], nil
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
