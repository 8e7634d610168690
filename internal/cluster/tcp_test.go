package cluster

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"ecsort/internal/service"
	"ecsort/internal/wal"
)

// startTCPNode runs one node on a loopback listener and returns its
// address.
func startTCPNode(t *testing.T) (*Node, string) {
	t.Helper()
	svc := service.New(service.Config{Shards: 1})
	t.Cleanup(func() { svc.Close() })
	node := NewNode(svc)
	node.SetLogger(testLogf(t))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go node.ServeTCP(l)
	t.Cleanup(func() { l.Close() })
	return node, l.Addr().String()
}

// listRequest is the wire payload of a node listing.
func listRequest() []byte {
	req, _ := encodeRequest(nil, opList, "", service.Args{}) // carries no spec, cannot fail
	return req
}

// clientHandshake dials addr and completes the header exchange,
// returning the raw connection for frame-level poking.
func clientHandshake(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := handshake(c); err != nil {
		c.Close()
		t.Fatalf("handshake: %v", err)
	}
	return c
}

// TestTCPServerRejectsCorruptFrame: a frame whose CRC does not match is
// counted, the connection dies, and the node keeps serving fresh
// connections — corruption is loud and contained.
func TestTCPServerRejectsCorruptFrame(t *testing.T) {
	node, addr := startTCPNode(t)

	c := clientHandshake(t, addr)
	defer c.Close()
	frame := wal.AppendFrame(nil, listRequest())
	frame[len(frame)-1] ^= 0xFF // flip a payload byte: CRC now lies
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection without answering.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("expected clean close after corrupt frame, got read error: %v", err)
	}
	if got := node.CorruptFrames(); got != 1 {
		t.Fatalf("CorruptFrames: got %d, want 1", got)
	}

	// The node is not poisoned: a fresh, well-formed exchange works.
	tr := NewTCPTransport(addr)
	defer tr.Close()
	resp, err := tr.Call(context.Background(), listRequest())
	if err != nil {
		t.Fatalf("well-formed call after corruption: %v", err)
	}
	if _, err := decodeResponse(resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

// TestTCPServerRejectsBadHandshake: wrong magic or an unknown version
// closes the connection before any frame is read. Older peers are
// refused too: a version 1 node's compact success bodies would reach
// clients in a different format from the relayed bodies, and a version
// 2 peer sends its request arguments as JSON, which a version 3 node
// cannot decode.
func TestTCPServerRejectsBadHandshake(t *testing.T) {
	node, addr := startTCPNode(t)
	hdrs := [][wal.HeaderSize]byte{
		wal.NewHeader("XXXX", WireVersion, 0),      // wrong magic
		wal.NewHeader(wireMagic, WireVersion+7, 0), // future version
		wal.NewHeader(wireMagic, 1, 0),             // version 1 peer
		wal.NewHeader(wireMagic, 2, 0),             // version 2 peer
	}
	for _, hdr := range hdrs {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(hdr[:])
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 64)
		// The server may send its own header before noticing ours is bad;
		// either way the connection must end without a frame.
		for {
			if _, err := c.Read(buf); err != nil {
				break
			}
		}
		c.Close()
	}
	if got := node.CorruptFrames(); got != int64(len(hdrs)) {
		t.Fatalf("CorruptFrames after bad handshakes: got %d, want %d", got, len(hdrs))
	}
}

// TestTCPClientRejectsCorruptResponse: a server answering with a
// CRC-broken frame fails the Call with wal.ErrCorrupt — the client
// never hands damaged bytes upstream.
func TestTCPClientRejectsCorruptResponse(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		hdr := wal.NewHeader(wireMagic, WireVersion, 0)
		var peer [wal.HeaderSize]byte
		io.ReadFull(c, peer[:])
		c.Write(hdr[:])
		buf := make([]byte, 4096)
		c.Read(buf) // swallow the request frame
		resp := wal.AppendFrame(nil, encodeOK(nil, []byte("[]")))
		resp[len(resp)-1] ^= 0xFF
		c.Write(resp)
	}()

	tr := NewTCPTransport(l.Addr().String())
	defer tr.Close()
	_, err = tr.Call(context.Background(), listRequest())
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("corrupt response: got %v, want wal.ErrCorrupt", err)
	}
}

// TestTCPClientRejectsBadServerHandshake: a server speaking the wrong
// protocol fails the first Call at dial time.
func TestTCPClientRejectsBadServerHandshake(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		hdr := wal.NewHeader("NOPE", WireVersion, 0)
		c.Write(hdr[:])
		var peer [wal.HeaderSize]byte
		io.ReadFull(c, peer[:])
	}()
	tr := NewTCPTransport(l.Addr().String())
	defer tr.Close()
	_, err = tr.Call(context.Background(), listRequest())
	if err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("bad server handshake: got %v, want handshake failure", err)
	}
}

// TestTCPTransportClosed: Call after Close fails fast.
func TestTCPTransportClosed(t *testing.T) {
	_, addr := startTCPNode(t)
	tr := NewTCPTransport(addr)
	if _, err := tr.Call(context.Background(), listRequest()); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if _, err := tr.Call(context.Background(), listRequest()); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Call after Close: got %v, want ErrTransportClosed", err)
	}
}

// TestTCPConnReuse: sequential calls share a pooled connection instead
// of redialing (observed through the node's request counter staying on
// one stream: the pool holds exactly one idle conn between calls).
func TestTCPConnReuse(t *testing.T) {
	_, addr := startTCPNode(t)
	tr := NewTCPTransport(addr)
	defer tr.Close()
	for i := 0; i < 5; i++ {
		if _, err := tr.Call(context.Background(), listRequest()); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	tr.mu.Lock()
	idle := len(tr.idle)
	tr.mu.Unlock()
	if idle != 1 {
		t.Fatalf("idle pool after sequential calls: got %d conns, want 1 (reuse)", idle)
	}
}

// TestChanTransportClosed mirrors the TCP lifecycle contract for the
// in-process transport, including double Close.
func TestChanTransportClosed(t *testing.T) {
	svc := service.New(service.Config{Shards: 1})
	defer svc.Close()
	tr := NewChanTransport(NewNode(svc))
	if _, err := tr.Call(context.Background(), listRequest()); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	tr.Close() // idempotent
	if _, err := tr.Call(context.Background(), listRequest()); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("Call after Close: got %v, want ErrTransportClosed", err)
	}
}

// TestChanTransportConcurrentExchanges: a read of one collection must
// not queue behind a slow fold of another collection on the same node.
// Each exchange is answered on its own goroutine, as each pooled TCP
// connection is; a single serving goroutine would hold the read until
// the fold's 300 ms oracle latency had passed.
func TestChanTransportConcurrentExchanges(t *testing.T) {
	svc := service.New(service.Config{Shards: 2, BatchSize: 64})
	defer svc.Close()
	node := NewNode(svc)
	co, err := New(Config{}, []Backend{{Name: "n0", Transport: NewChanTransport(node)}})
	if err != nil {
		t.Fatal(err)
	}
	cl := service.NewClient(co)
	defer co.Close()
	ctx := context.Background()
	if _, err := cl.CreateCollection(ctx, "fast", service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest(ctx, "fast", []int{0, 1, 2}, true); err != nil {
		t.Fatal(err)
	}
	slow := service.OracleSpec{Kind: service.KindLabel, Labels: []int{0, 1}, Faults: &service.FaultSpec{LatencyMs: 300}}
	if _, err := cl.CreateCollection(ctx, "slow", slow); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Ingest(ctx, "slow", []int{0, 1}, false); err != nil {
		t.Fatal(err)
	}

	before := node.requests.Load()
	foldDone := make(chan error, 1)
	go func() {
		_, err := cl.Ingest(ctx, "slow", nil, true)
		foldDone <- err
	}()
	for node.requests.Load() == before { // the fold's exchange is in Handle
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	view, err := cl.ClassOf(ctx, "fast", 0, false)
	elapsed := time.Since(start)
	if err != nil || len(view.Members) != 2 {
		t.Fatalf("read during the fold: %+v, %v", view, err)
	}
	select {
	case err := <-foldDone:
		t.Fatalf("the read took %v and returned after the slow fold (err %v): it queued behind the fold", elapsed, err)
	default:
	}
	if err := <-foldDone; err != nil {
		t.Fatalf("slow fold: %v", err)
	}
}
