package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Transport carries one request payload to a backend node and returns
// its response payload. Implementations must be safe for concurrent
// Call use. A returned error means the exchange itself failed — the
// node is unreachable, the connection died, a frame failed its CRC —
// and the coordinator treats the node as down. A node that answered
// with a service failure is NOT a transport error: that failure rides
// inside the response payload (decoded to *RemoteError upstream), and
// the node is alive.
//
// The contract is message-passing-only: the bytes are the entire
// exchange. Callers must not retain req after Call returns, and must
// not mutate the returned slice's backing array across calls.
type Transport interface {
	Call(ctx context.Context, req []byte) ([]byte, error)
	Close() error
}

// ErrTransportClosed is returned by Call after Close.
var ErrTransportClosed = errors.New("cluster: transport closed")

// chanExchange is one in-flight ChanTransport request.
type chanExchange struct {
	req  []byte
	resp chan []byte
}

// ChanTransport is the in-process transport: requests cross a channel
// to a dispatching goroutine that answers each one with the node's
// Handle on a goroutine of its own, and responses cross back on a
// per-call channel. No memory is shared with the node beyond the copied
// payload — the same discipline as TCP, minus the socket — so the tests
// and benchmarks that build it exercise the exact codec and ownership
// rules production traffic uses. Like TCP's one goroutine per pooled
// connection, concurrent calls run concurrently: a read of one
// collection never queues behind a slow fold of another.
type ChanTransport struct {
	reqs    chan chanExchange
	quit    chan struct{}
	done    chan struct{}
	closing sync.Once
}

// NewChanTransport starts a dispatching goroutine answering via node.
// Close stops it.
func NewChanTransport(node *Node) *ChanTransport {
	t := &ChanTransport{
		reqs: make(chan chanExchange),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		var inflight sync.WaitGroup
		defer func() {
			inflight.Wait()
			close(t.done)
		}()
		for {
			select {
			case <-t.quit:
				return
			case ex := <-t.reqs:
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					ex.resp <- node.Handle(ex.req)
				}()
			}
		}
	}()
	return t
}

// Call sends one request and waits for its response.
func (t *ChanTransport) Call(ctx context.Context, req []byte) ([]byte, error) {
	// Copy: the caller owns req only until Call returns, but the
	// handling goroutine reads it after the handoff.
	own := make([]byte, len(req))
	copy(own, req)
	ex := chanExchange{req: own, resp: make(chan []byte, 1)}
	select {
	case t.reqs <- ex:
	case <-t.quit:
		return nil, ErrTransportClosed
	case <-ctx.Done():
		return nil, fmt.Errorf("cluster: chan transport: %w", ctx.Err())
	}
	select {
	case resp := <-ex.resp:
		return resp, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("cluster: chan transport: %w", ctx.Err())
	}
}

// Close stops the dispatching goroutine and waits for every in-flight
// Handle to finish (each response lands in its buffered per-call
// channel).
func (t *ChanTransport) Close() error {
	t.closing.Do(func() { close(t.quit) })
	<-t.done
	return nil
}
