package cluster

import (
	"context"
	"log"
	"sync/atomic"
	"time"

	"ecsort/internal/service"
)

// Node is one cluster backend: a service.Service answering the wire
// protocol. The same Node serves ChanTransport (Handle called from the
// transport's goroutine) and TCPTransport (ServeTCP's per-connection
// readers) — both paths run the identical decode → execute → encode
// sequence, which is what makes the two transports bit-identical by
// construction.
type Node struct {
	svc   *service.Service
	start time.Time
	// logf receives frame-corruption and connection-failure reports;
	// defaults to log.Printf. Corruption is never silent.
	logf func(format string, args ...any)

	corruptFrames atomic.Int64
	requests      atomic.Int64
}

// NewNode wraps svc as a cluster backend. The node does not own the
// service's lifecycle: callers close svc themselves after the node's
// listeners are down.
func NewNode(svc *service.Service) *Node {
	return &Node{svc: svc, start: time.Now(), logf: log.Printf}
}

// SetLogger redirects the node's corruption/connection reports.
func (n *Node) SetLogger(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	n.logf = logf
}

// CorruptFrames reports how many integrity-failed frames this node has
// rejected (each one also closed its connection).
func (n *Node) CorruptFrames() int64 { return n.corruptFrames.Load() }

// Handle answers one request payload with a response payload: a
// collection operation runs through the service's executor, which
// appends the HTTP body right after the success tag. Errors never
// escape as Go errors: they are encoded, with their service.StatusOf
// status, into the response so the transport stays a dumb byte pipe.
func (n *Node) Handle(req []byte) []byte {
	n.requests.Add(1)
	out := encodeOK(nil, nil)
	o, key, a, err := decodeRequest(req)
	switch {
	case err != nil:
		err = service.BadRequest(err)
	case o == opList:
		out = service.AppendJSON(out, n.svc.Collections())
	case o == opHealth:
		out = service.AppendJSON(out, n.health())
	default:
		//ecsort:ignore ctxflow request root: the wire carries no deadline, and the service's executor does not read ctx
		out, err = n.svc.Do(context.Background(), out, service.Op(o), key, a)
	}
	if err != nil {
		status, retryAfter := service.StatusOf(err)
		return encodeErr(nil, status, retryAfter, err.Error())
	}
	return out
}

// health is the node's self-report for the coordinator's fleet views.
func (n *Node) health() nodeHealth {
	h := nodeHealth{UptimeSecs: time.Since(n.start).Seconds(), Corrupt: n.corruptFrames.Load()}
	for _, info := range n.svc.Collections() {
		h.Collections++
		if info.RetryAfterSeconds > 0 {
			h.Degraded = append(h.Degraded, DegradedBackend{
				Key:               info.Key,
				Breaker:           info.Breaker,
				RetryAfterSeconds: info.RetryAfterSeconds,
			})
		}
	}
	return h
}
