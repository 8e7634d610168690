package service_test

// Differential testing: seeded operation sequences run through
// service.Executor on every backend that serves the collection API —
// memory (the control), durable with crash-and-recover steps, and a
// 3-node cluster over ChanTransport and over TCPTransport — and each
// result is checked twice: against the control's status and body
// bytes, and against a reference model that knows only each
// collection's ground-truth labels and its live elements. A failing
// sequence reports its seed and its shortest failing prefix, which
// replays with go test -run '^TestDifferential$/^seed=<n>$' and encodes
// as a FuzzDifferential corpus entry.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecsort/internal/cluster"
	"ecsort/internal/dist"
	"ecsort/internal/service"
)

const (
	// opCrash kills the durable backend without a clean shutdown and
	// recovers it from its data directory; the other backends skip it.
	opCrash service.Op = 0

	diffKeys     = 4  // keys per key space: creates collide, drops re-create
	diffMaxN     = 40 // largest generated universe
	diffMaxBatch = 12 // largest valid generated ingest batch
	diffMaxSteps = 96 // longest sequence FuzzDifferential decodes
)

// diffRegimens are the sorting regimens a generated create draws from:
// the incremental engine and two batch regimens.
var diffRegimens = []string{service.AlgorithmIncremental, "er", "cr-unknown-k"}

// diffConfig is every backend's service configuration. A collection's
// folds are deterministic under it — no interval flusher, no repair
// daemon — and its batch threshold is small enough that generated
// ingests cross it.
var diffConfig = service.Config{Shards: 2, BatchSize: 6, Workers: 1}

// step is one generated operation, in a compact form with a byte
// encoding (encodeSteps) so a failing sequence can be committed as a
// fuzz corpus entry.
type step struct {
	op    service.Op
	key   int  // index into the key space
	flush bool // Args.Flush: ?flush=1 on writes, ?fresh=1 on reads
	// OpCreate's spec (see spec).
	handshake, resilient bool
	regimen, n, k, seed  int
	// items is OpIngest's batch; elem is the element of OpDelete and
	// OpClassOf, the class of OpInvalidate, and OpResilience's profile.
	items []int
	elem  int
}

// spec builds OpCreate's collection: n elements in k classes, skewed
// by a zeta law for odd seeds and uniform for even ones.
func (st step) spec() service.OracleSpec {
	var d dist.Distribution = dist.NewUniform(st.k)
	if st.seed%2 == 1 {
		d = dist.NewZeta(2)
	}
	labels := dist.Labels(d, st.n, rand.New(rand.NewSource(int64(st.seed))))
	for i := range labels {
		labels[i] = min(labels[i], st.k-1)
	}
	sp := service.OracleSpec{Kind: service.KindLabel, Labels: labels, Seed: int64(st.seed), Algorithm: diffRegimens[st.regimen]}
	if st.handshake {
		sp.Kind = service.KindHandshake
	}
	if st.resilient {
		// A generous timeout: without faults the middleware must never
		// time out, or folds would stop being deterministic.
		sp.Resilience = &service.ResilienceSpec{TimeoutMs: 60_000, Votes: 3}
	}
	return sp
}

// args is the step's executor arguments.
func (st step) args() service.Args {
	switch st.op {
	case service.OpCreate:
		sp := st.spec()
		return service.Args{Spec: &sp}
	case service.OpIngest:
		return service.Args{Items: st.items, Flush: st.flush}
	case service.OpResilience:
		v := int(uint8(st.elem))
		return service.Args{Resilience: &service.ResilienceSpec{TimeoutMs: 60_000, Retries: v % 3, Votes: 1 + 2*(v/3%2)}}
	}
	return service.Args{Element: st.elem, Flush: st.flush}
}

var opNames = [...]string{"crash", "create", "drop", "ingest", "delete", "invalidate", "classes", "class-of", "stats", "resilience"}

func (st step) String() string {
	s := fmt.Sprintf("%s k%d", opNames[st.op], st.key)
	switch st.op {
	case opCrash:
		return "crash and reopen durable"
	case service.OpCreate:
		sp := st.spec()
		s += fmt.Sprintf(" %s/%s n=%d k=%d seed=%d resilient=%v", sp.Kind, sp.Algorithm, st.n, st.k, st.seed, st.resilient)
	case service.OpIngest:
		s += fmt.Sprintf(" %v", st.items)
	case service.OpDelete, service.OpInvalidate, service.OpClassOf, service.OpResilience:
		s += fmt.Sprintf(" %d", st.elem)
	}
	if st.flush {
		s += " flush"
	}
	return s
}

// encodeSteps is the fuzz encoding of a sequence: per step an op byte,
// a key byte and a flags byte (flush, handshake, resilient), then the
// op's own bytes. decodeSteps inverts it.
func encodeSteps(steps []step) []byte {
	var out []byte
	for _, st := range steps {
		var flags byte
		for i, set := range []bool{st.flush, st.handshake, st.resilient} {
			if set {
				flags |= 1 << i
			}
		}
		out = append(out, byte(st.op), byte(st.key), flags)
		switch st.op {
		case service.OpCreate:
			out = append(out, byte(st.regimen), byte(st.n-1), byte(st.k-1), byte(st.seed))
		case service.OpIngest:
			out = append(out, byte(len(st.items)))
			for _, e := range st.items {
				out = append(out, byte(int8(e)))
			}
		case service.OpDelete, service.OpInvalidate, service.OpClassOf, service.OpResilience:
			out = append(out, byte(int8(st.elem)))
		}
	}
	return out
}

// decodeSteps reads any bytes as a sequence of at most diffMaxSteps
// valid steps, dropping a truncated last one: each field is taken
// modulo its range (op mod 10, key mod diffKeys, an ingest's item
// count mod 32).
func decodeSteps(p []byte) []step {
	var steps []step
	take := func(n int) []byte {
		if len(p) < n {
			p = nil
			return nil
		}
		b := p[:n]
		p = p[n:]
		return b
	}
	for len(steps) < diffMaxSteps {
		h := take(3)
		if h == nil {
			break
		}
		st := step{op: service.Op(h[0] % 10), key: int(h[1] % diffKeys), flush: h[2]&1 != 0, handshake: h[2]&2 != 0, resilient: h[2]&4 != 0}
		switch st.op {
		case service.OpCreate:
			b := take(4)
			if b == nil {
				return steps
			}
			st.regimen, st.n, st.k, st.seed = int(b[0])%len(diffRegimens), 1+int(b[1])%diffMaxN, 1+int(b[2])%8, int(b[3])
		case service.OpIngest:
			c := take(1)
			if c == nil {
				return steps
			}
			b := take(int(c[0] % 32))
			if b == nil {
				return steps
			}
			st.items = make([]int, len(b))
			for i, x := range b {
				st.items[i] = int(int8(x))
			}
		case service.OpDelete, service.OpInvalidate, service.OpClassOf, service.OpResilience:
			b := take(1)
			if b == nil {
				return steps
			}
			st.elem = int(int8(b[0]))
		}
		steps = append(steps, st)
	}
	return steps
}

// keyName is the collection key of index k in a key space.
func keyName(prefix string, k int) string { return fmt.Sprintf("%sk%d", prefix, k) }

// generate draws a count-step sequence over prefix's key space. Each
// step is drawn against the model's state after the steps before it,
// so most are valid and the rest probe the rejections the model
// decides; every op that changes the model's state has a status the
// model decides, so the whole sequence can be drawn up front.
func generate(seed int64, count int, prefix string, crash bool) []step {
	rng := rand.New(rand.NewSource(seed))
	m := refModel{}
	steps := make([]step, 0, count)
	for len(steps) < count {
		st := draw(rng, m, prefix, crash)
		a := st.args()
		if status, _ := m.predict(keyName(prefix, st.key), st.op, a); status < 300 {
			m.apply(keyName(prefix, st.key), st.op, a)
		}
		steps = append(steps, st)
	}
	return steps
}

// draw picks one step: a create on most missing keys, otherwise
// ingests, deletes and reads weighted toward the valid case.
func draw(rng *rand.Rand, m refModel, prefix string, crash bool) step {
	st := step{key: rng.Intn(diffKeys)}
	c := m[keyName(prefix, st.key)]
	fresh := rng.Intn(2) == 0
	switch r := rng.Intn(100); {
	case r < 6 || c == nil && r < 60:
		st.op = service.OpCreate
		st.handshake = rng.Intn(4) == 0
		st.resilient = rng.Intn(4) == 0
		st.regimen = rng.Intn(len(diffRegimens))
		st.n = 1 + rng.Intn(diffMaxN)
		st.k = 1 + rng.Intn(8)
		st.seed = rng.Intn(256)
	case r < 9:
		st.op = service.OpDrop
	case r < 44:
		st.op, st.flush = service.OpIngest, rng.Intn(3) == 0
		st.items = drawItems(rng, c)
	case r < 56:
		st.op, st.elem = service.OpDelete, drawElem(rng, c, true)
	case r < 62:
		st.op, st.elem, st.flush = service.OpInvalidate, rng.Intn(5)-1, fresh
	case r < 73:
		st.op, st.flush = service.OpClasses, fresh
	case r < 86:
		st.op, st.elem, st.flush = service.OpClassOf, drawElem(rng, c, false), fresh
	case r < 91:
		st.op = service.OpStats
	case r < 95 || !crash:
		st.op, st.elem = service.OpResilience, rng.Intn(6)
	default:
		st.op = opCrash
	}
	return st
}

// drawItems draws an ingest batch of elements not yet live; one batch
// in six carries one invalid item: out of range, a duplicate within the
// batch, or an element already live.
func drawItems(rng *rand.Rand, c *refCol) []int {
	if c == nil {
		return []int{rng.Intn(8)}
	}
	var free, live []int
	for e, ok := range c.live {
		if ok {
			live = append(live, e)
		} else {
			free = append(free, e)
		}
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	items := free[:rng.Intn(min(len(free), diffMaxBatch)+1)]
	if rng.Intn(6) == 0 {
		switch r := rng.Intn(3); {
		case r == 0:
			items = append(items, []int{-1, len(c.labels), len(c.labels) + 1}[rng.Intn(3)])
		case r == 1 && len(items) > 0:
			items = append(items, items[rng.Intn(len(items))])
		case len(live) > 0:
			items = append(items, live[rng.Intn(len(live))])
		}
	}
	return items
}

// drawElem draws an element: usually a live one (preferLive) or one in
// the universe, sometimes one just outside it.
func drawElem(rng *rand.Rand, c *refCol, preferLive bool) int {
	if c == nil {
		return rng.Intn(8)
	}
	n := len(c.labels)
	if preferLive && rng.Intn(5) != 0 {
		if live := c.partition(); len(live) > 0 {
			class := live[rng.Intn(len(live))]
			return class[rng.Intn(len(class))]
		}
	}
	return rng.Intn(n+2) - 1
}

// refModel is the reference model: per existing key, the collection's
// ground-truth labels and its live elements (ingested, not deleted).
// Everything it predicts follows from those alone.
type refModel map[string]*refCol

type refCol struct {
	labels    []int
	live      []bool
	resilient bool
}

// partition is the ground truth over the live elements, in the
// service's canonical order: members ascending, classes by smallest
// member.
func (c *refCol) partition() [][]int {
	index := map[int]int{}
	var classes [][]int
	for e, ok := range c.live {
		if !ok {
			continue
		}
		i, seen := index[c.labels[e]]
		if !seen {
			i = len(classes)
			index[c.labels[e]] = i
			classes = append(classes, nil)
		}
		classes[i] = append(classes[i], e)
	}
	return classes
}

// predict returns the status the model expects for op on key, and
// whether the model decides it: a missing key (404), a duplicate
// create (409), an out-of-range, duplicate or already-live item (400),
// a delete of a non-member (404), a fresh class-of, a resilience PATCH
// on a collection without the middleware (400), and every success the
// model's state implies. An invalidation's class index, and a plain
// class-of, depend on what the last fold published, which the model
// does not track.
func (m refModel) predict(key string, op service.Op, a service.Args) (int, bool) {
	c := m[key]
	if op == service.OpCreate {
		if c != nil {
			return http.StatusConflict, true
		}
		return http.StatusCreated, true
	}
	if c == nil {
		return http.StatusNotFound, true
	}
	n := len(c.labels)
	switch op {
	case service.OpDrop:
		return http.StatusNoContent, true
	case service.OpIngest:
		for i, e := range a.Items {
			if e < 0 || e >= n || c.live[e] || slices.Contains(a.Items[:i], e) {
				return http.StatusBadRequest, true
			}
		}
		return http.StatusAccepted, true
	case service.OpDelete, service.OpClassOf:
		switch e := a.Element; {
		case e < 0 || e >= n:
			return http.StatusBadRequest, true
		case op == service.OpClassOf && !a.Flush:
			return 0, false
		case !c.live[e]:
			return http.StatusNotFound, true
		}
		return http.StatusOK, true
	case service.OpClasses, service.OpStats:
		return http.StatusOK, true
	case service.OpResilience:
		if !c.resilient {
			return http.StatusBadRequest, true
		}
		return http.StatusOK, true
	}
	return 0, false
}

// apply advances the model past a successful op.
func (m refModel) apply(key string, op service.Op, a service.Args) {
	switch op {
	case service.OpCreate:
		m[key] = &refCol{
			labels:    a.Spec.Labels,
			live:      make([]bool, a.Spec.N()),
			resilient: a.Spec.Resilience != nil || a.Spec.Faults != nil,
		}
	case service.OpDrop:
		delete(m, key)
	case service.OpIngest:
		for _, e := range a.Items {
			m[key].live[e] = true
		}
	case service.OpDelete:
		m[key].live[a.Element] = false
	}
}

// check verifies r, op's result on key, against the model — its status
// wherever the model decides it, and the partition a fresh read
// returns — then advances the model past it. It returns why r is
// wrong, or "".
func (m refModel) check(key string, op service.Op, a service.Args, r result) string {
	if want, ok := m.predict(key, op, a); ok && r.status != want {
		return fmt.Sprintf("status %d, model expects %d: %s", r.status, want, brief(r.body))
	}
	if r.status >= 500 {
		return fmt.Sprintf("status %d: %s", r.status, brief(r.body))
	}
	if r.status >= 300 {
		return ""
	}
	if c := m[key]; c != nil && a.Flush {
		want := c.partition()
		switch op {
		case service.OpClasses:
			var snap service.Snapshot
			if err := json.Unmarshal(r.body, &snap); err != nil {
				return fmt.Sprintf("undecodable classes body: %v", err)
			}
			live := 0
			for _, class := range want {
				live += len(class)
			}
			if !samePartition(snap.Classes, want) || snap.Size != live {
				return fmt.Sprintf("fresh classes %v (size %d), model %v (size %d)", snap.Classes, snap.Size, want, live)
			}
		case service.OpClassOf:
			var view service.ClassView
			if err := json.Unmarshal(r.body, &view); err != nil {
				return fmt.Sprintf("undecodable class-of body: %v", err)
			}
			i := slices.IndexFunc(want, func(class []int) bool { return slices.Contains(class, a.Element) })
			if view.ClassIndex != i || !slices.Equal(view.Members, want[i]) {
				return fmt.Sprintf("fresh class-of %d: class %d %v, model class %d %v", a.Element, view.ClassIndex, view.Members, i, want[i])
			}
		}
	}
	m.apply(key, op, a)
	return ""
}

func samePartition(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }

// brief shortens a body for a failure message.
func brief(b []byte) string {
	const limit = 240
	if len(b) > limit {
		return fmt.Sprintf("%s… (%d bytes)", b[:limit], len(b))
	}
	return string(b)
}

// diverges says how got, a backend's result, differs from want, the
// control's, or returns "" when their statuses and body bytes match.
func diverges(name string, got, want result) string {
	if got.status == want.status && bytes.Equal(got.body, want.body) {
		return ""
	}
	return fmt.Sprintf("%s answered %d %s; memory answered %d %s", name, got.status, brief(got.body), want.status, brief(want.body))
}

// result is one operation's outcome as its HTTP route writes it: the
// status, and the success body or the error text.
type result struct {
	status int
	body   []byte
	// degraded marks a 503 that tells the client when to retry.
	degraded bool
}

// okStatus is each operation's success status, as service.Routes
// registers it.
var okStatus = map[service.Op]int{
	service.OpCreate: http.StatusCreated, service.OpDrop: http.StatusNoContent,
	service.OpIngest: http.StatusAccepted, service.OpDelete: http.StatusOK,
	service.OpInvalidate: http.StatusAccepted, service.OpClasses: http.StatusOK,
	service.OpClassOf: http.StatusOK, service.OpStats: http.StatusOK,
	service.OpResilience: http.StatusOK,
}

func exec(ctx context.Context, ex service.Executor, key string, op service.Op, a service.Args) result {
	body, err := ex.Do(ctx, nil, op, key, a)
	if err != nil {
		status, retryAfter := service.StatusOf(err)
		return result{status: status, body: []byte(err.Error()), degraded: retryAfter > 0}
	}
	// An executor may hand back bytes it still holds (Executor.Do).
	return result{status: okStatus[op], body: bytes.Clone(body)}
}

// diffBackend is one executor under test, with every service behind it.
type diffBackend struct {
	name string
	ex   service.Executor
	svcs []*service.Service
	// reopen, set on the durable backend only, kills its service and
	// recovers a new one from the same data directory.
	reopen func() error
	close  func()
}

func memoryBackend(cfg service.Config) *diffBackend {
	svc := service.New(cfg)
	return &diffBackend{name: "memory", ex: svc, svcs: []*service.Service{svc}, close: svc.Close}
}

func durableBackend(t testing.TB, cfg service.Config, dir string) *diffBackend {
	cfg.DataDir, cfg.Fsync, cfg.MaxSegmentBytes = dir, "never", 2048
	svc, err := service.Open(cfg)
	if err != nil {
		t.Fatalf("open durable backend: %v", err)
	}
	b := &diffBackend{name: "durable", ex: svc, svcs: []*service.Service{svc}}
	b.reopen = func() error {
		service.Crash(b.svcs[0])
		svc, err := service.Open(cfg)
		if err != nil {
			return err
		}
		b.ex, b.svcs[0] = svc, svc
		return nil
	}
	b.close = func() { b.svcs[0].Close() }
	return b
}

// clusterBackend is a coordinator over three nodes, reached over
// ChanTransport or, with tcp set, over loopback TCPTransport.
func clusterBackend(t testing.TB, cfg service.Config, tcp bool) *diffBackend {
	b := &diffBackend{name: "chan"}
	if tcp {
		b.name = "tcp"
	}
	var listeners []net.Listener
	backends := make([]cluster.Backend, 3)
	for i := range backends {
		svc := service.New(cfg)
		b.svcs = append(b.svcs, svc)
		node := cluster.NewNode(svc)
		node.SetLogger(func(string, ...any) {})
		var tr cluster.Transport = cluster.NewChanTransport(node)
		if tcp {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			listeners = append(listeners, l)
			go node.ServeTCP(l)
			tr = cluster.NewTCPTransport(l.Addr().String())
		}
		backends[i] = cluster.Backend{Name: fmt.Sprintf("node-%d", i), Transport: tr}
	}
	co, err := cluster.New(cluster.Config{}, backends)
	if err != nil {
		t.Fatalf("assemble %s cluster: %v", b.name, err)
	}
	b.ex = co
	b.close = func() {
		co.Close()
		for _, svc := range b.svcs {
			svc.Close()
		}
		for _, l := range listeners {
			l.Close()
		}
	}
	return b
}

// newBackends builds the memory control followed by the backends under
// test: durable in dir, the chan cluster, and the TCP cluster when
// withTCP is set.
func newBackends(t testing.TB, dir string, withTCP bool) []*diffBackend {
	bs := []*diffBackend{memoryBackend(diffConfig), durableBackend(t, diffConfig, dir), clusterBackend(t, diffConfig, false)}
	if withTCP {
		bs = append(bs, clusterBackend(t, diffConfig, true))
	}
	return bs
}

func closeBackends(bs []*diffBackend) {
	for _, b := range bs {
		b.close()
	}
}

// failure is the first step a replay found wrong.
type failure struct {
	at  int
	why string
}

// replay runs steps on fresh backends over the "k" key space, checking
// every step: each backend's status and body against the control's,
// and the control's result against the model. It returns the first
// failure, or nil.
func replay(t testing.TB, steps []step, withTCP bool) *failure {
	dir, err := os.MkdirTemp(t.TempDir(), "durable")
	if err != nil {
		t.Fatal(err)
	}
	bs := newBackends(t, dir, withTCP)
	defer closeBackends(bs)
	ctx := context.Background()
	m := refModel{}
	for i, st := range steps {
		if st.op == opCrash {
			if err := bs[1].reopen(); err != nil {
				return &failure{i, fmt.Sprintf("durable: recovery failed: %v", err)}
			}
			continue
		}
		key, a := keyName("", st.key), st.args()
		want := exec(ctx, bs[0].ex, key, st.op, a)
		for _, b := range bs[1:] {
			if why := diverges(b.name, exec(ctx, b.ex, key, st.op, a), want); why != "" {
				return &failure{i, why}
			}
		}
		if why := m.check(key, st.op, a, want); why != "" {
			return &failure{i, "against the model: " + why}
		}
	}
	return nil
}

// shrink returns the shortest failing prefix of steps, found by
// bisection over prefix lengths, and then that prefix with every step
// dropped whose removal keeps it failing.
func shrink(t testing.TB, steps []step, withTCP bool) (prefix, shrunk []step) {
	lo, hi := 0, len(steps) // steps[:lo] passes, steps[:hi] fails
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if replay(t, steps[:mid], withTCP) != nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	prefix = steps[:hi]
	shrunk = prefix
	for i := len(shrunk) - 1; i >= 0; i-- {
		cand := append(slices.Clone(shrunk[:i]), shrunk[i+1:]...)
		if f := replay(t, cand, withTCP); f != nil {
			shrunk = cand[:f.at+1]
			i = min(i, len(shrunk))
		}
	}
	return prefix, shrunk
}

// listing renders steps one per line, for a failure report.
func listing(steps []step) string {
	var sb strings.Builder
	for i, st := range steps {
		fmt.Fprintf(&sb, "\t%3d  %v\n", i, st)
	}
	return sb.String()
}

// explain reports a failing seeded sequence: where it failed, its
// shortest failing prefix, a shrunk sequence, how to replay it, and the
// shrunk sequence as a FuzzDifferential corpus entry.
func explain(t testing.TB, seed int64, steps []step, f *failure, withTCP bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed %d: step %d (%v): %s\n", seed, f.at, steps[f.at], f.why)
	fmt.Fprintf(&sb, "replay: go test ./internal/service -run '^TestDifferential$/^seed=%d$'\n", seed)
	if replay(t, steps[:f.at+1], withTCP) == nil {
		sb.WriteString("the failure did not reproduce on a replay of its prefix; sequence:\n")
		sb.WriteString(listing(steps[:f.at+1]))
		return sb.String()
	}
	prefix, shrunk := shrink(t, steps[:f.at+1], withTCP)
	fmt.Fprintf(&sb, "shortest failing prefix (bisection): %d steps\n%s", len(prefix), listing(prefix))
	fmt.Fprintf(&sb, "shrunk to %d steps:\n%s", len(shrunk), listing(shrunk))
	fmt.Fprintf(&sb, "corpus entry (internal/service/testdata/fuzz/FuzzDifferential/seed-%d):\ngo test fuzz v1\n[]byte(%q)\n", seed, encodeSteps(shrunk))
	return sb.String()
}

// TestDifferential runs seeded sequences on all four backends, one op
// at a time. Only the first failing seed is shrunk: one defect usually
// fails many seeds, and shrinking replays the sequence many times.
func TestDifferential(t *testing.T) {
	const seeds, count = 160, 200
	var explained atomic.Bool
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			steps := generate(seed, count, "", true)
			if f := replay(t, steps, true); f != nil {
				if explained.Swap(true) {
					t.Fatalf("seed %d: step %d (%v): %s", seed, f.at, steps[f.at], f.why)
				}
				t.Fatal(explain(t, seed, steps, f, true))
			}
		})
	}
}

// TestDifferentialConcurrent gives every backend the same writers, each
// running its own seeded sequence on its own keys, all backends and
// writers at once. Per-collection behaviour does not depend on other
// collections, so each writer's transcript must be identical across
// backends and pass the model. Then the durable backend crashes and
// recovers, and every key's stats and classes must still read the same
// everywhere.
func TestDifferentialConcurrent(t *testing.T) {
	const seeds, writers, count = 8, 4, 100
	ctx := context.Background()
	prefix := func(w int) string { return fmt.Sprintf("w%d-", w) }
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			bs := newBackends(t, t.TempDir(), true)
			defer closeBackends(bs)
			seqs := make([][]step, writers)
			for w := range seqs {
				seqs[w] = generate(seed*1000+int64(w), count, prefix(w), false)
			}
			// transcripts[b][w] is writer w's results on backend b.
			transcripts := make([][][]result, len(bs))
			var wg sync.WaitGroup
			for bi, b := range bs {
				transcripts[bi] = make([][]result, writers)
				for w, steps := range seqs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						out := make([]result, len(steps))
						for i, st := range steps {
							out[i] = exec(ctx, b.ex, keyName(prefix(w), st.key), st.op, st.args())
						}
						transcripts[bi][w] = out
					}()
				}
			}
			wg.Wait()
			for w, steps := range seqs {
				m := refModel{}
				for i, st := range steps {
					want := transcripts[0][w][i]
					for bi, b := range bs[1:] {
						if why := diverges(b.name, transcripts[bi+1][w][i], want); why != "" {
							t.Fatalf("seed %d writer %d step %d (%v): %s\n%s", seed, w, i, st, why, listing(steps[:i+1]))
						}
					}
					if why := m.check(keyName(prefix(w), st.key), st.op, st.args(), want); why != "" {
						t.Fatalf("seed %d writer %d step %d (%v): against the model: %s\n%s", seed, w, i, st, why, listing(steps[:i+1]))
					}
				}
			}

			if err := bs[1].reopen(); err != nil {
				t.Fatalf("durable recovery: %v", err)
			}
			for w := range seqs {
				for k := range diffKeys {
					key := keyName(prefix(w), k)
					for _, read := range []struct {
						op    service.Op
						fresh bool
					}{{service.OpStats, false}, {service.OpClasses, false}, {service.OpClasses, true}, {service.OpStats, false}} {
						a := service.Args{Flush: read.fresh}
						want := exec(ctx, bs[0].ex, key, read.op, a)
						for _, b := range bs[1:] {
							if why := diverges(b.name, exec(ctx, b.ex, key, read.op, a), want); why != "" {
								t.Fatalf("seed %d after recovery, %s %s fresh=%v: %s", seed, opNames[read.op], key, read.fresh, why)
							}
						}
					}
				}
			}
		})
	}
}

// chaosConfig shapes a fault-injected churn run: writers streaming
// shuffled batches into label collections whose oracles flip and fail
// answers behind the resilience middleware, deleting and re-ingesting
// an element and invalidating a class now and then.
type chaosConfig struct {
	collections, elements, classes, batch, writers int
	seed                                           int64
	faults                                         service.FaultSpec
	resilience                                     service.ResilienceSpec
	deleteFraction, invalidateFraction             float64
	// sweeps bounds the repair sweeps the run may spend converging
	// every collection back to ground truth.
	sweeps  int
	service service.Config
}

// degradedRetries bounds how often a chaos writer retries a degraded
// 503, 5 ms apart, before the run fails.
const degradedRetries = 400

// execRetry runs op, retrying a degraded rejection as a client honouring
// Retry-After would.
func execRetry(ctx context.Context, ex service.Executor, key string, op service.Op, a service.Args) result {
	r := exec(ctx, ex, key, op, a)
	for attempt := 1; r.degraded && attempt < degradedRetries; attempt++ {
		time.Sleep(5 * time.Millisecond)
		r = exec(ctx, ex, key, op, a)
	}
	return r
}

// runChaos drives cfg's chaos run on memory and on a chan cluster.
// Flipped answers make partitions diverge mid-run, and how they diverge
// depends on scheduling, so backends are not compared with each other:
// every result is checked against the model, whose state does not
// advance on a degraded 503, and afterwards every service runs repair
// sweeps until each partition equals the model's.
func runChaos(t *testing.T, cfg chaosConfig) {
	ctx := context.Background()
	for _, name := range []string{"memory", "chan"} {
		t.Run(name, func(t *testing.T) {
			b := memoryBackend(cfg.service)
			if name == "chan" {
				b = clusterBackend(t, cfg.service, false)
			}
			defer b.close()
			start := time.Now()

			rng := rand.New(rand.NewSource(cfg.seed))
			models := make([]refModel, cfg.writers)
			for w := range models {
				models[w] = refModel{}
			}
			keys := make([]string, cfg.collections)
			orders := make([][]int, cfg.collections)
			for i := range keys {
				labels := make([]int, cfg.elements)
				for e := range labels {
					labels[e] = rng.Intn(cfg.classes)
				}
				orders[i] = rng.Perm(cfg.elements)
				// Each collection gets its own fault stream, so chaos is
				// not correlated across collections.
				faults, res := cfg.faults, cfg.resilience
				faults.Seed = cfg.seed + int64(i)*7919
				keys[i] = fmt.Sprintf("chaos-%d", i)
				a := service.Args{Spec: &service.OracleSpec{Kind: service.KindLabel, Labels: labels, Faults: &faults, Resilience: &res}}
				if why := models[i%cfg.writers].check(keys[i], service.OpCreate, a, exec(ctx, b.ex, keys[i], service.OpCreate, a)); why != "" {
					t.Fatalf("create %s: %s", keys[i], why)
				}
			}

			var deletes, invalidates atomic.Int64
			var wg sync.WaitGroup
			for w := range cfg.writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					wrng := rand.New(rand.NewSource(cfg.seed ^ int64(w+1)*104729))
					m := models[w]
					// do runs one op and checks it against the model; a
					// degraded rejection of an op that is not retried
					// leaves the model where it was.
					do := func(key string, op service.Op, a service.Args, retry bool) (result, bool) {
						var r result
						if retry {
							r = execRetry(ctx, b.ex, key, op, a)
						} else if r = exec(ctx, b.ex, key, op, a); r.degraded {
							return r, true
						}
						if why := m.check(key, op, a, r); why != "" {
							t.Errorf("%s %s: %s", opNames[op], key, why)
							return r, false
						}
						return r, true
					}
					for i := w; i < len(keys); i += cfg.writers {
						key := keys[i]
						for lo := 0; lo < cfg.elements; lo += cfg.batch {
							batch := orders[i][lo:min(lo+cfg.batch, cfg.elements)]
							if _, ok := do(key, service.OpIngest, service.Args{Items: batch}, true); !ok {
								return
							}
							// Churn: delete one element of the batch just written
							// and put it straight back, unless the breaker beat
							// the delete to it.
							if wrng.Float64() < cfg.deleteFraction {
								e := batch[wrng.Intn(len(batch))]
								r, ok := do(key, service.OpDelete, service.Args{Element: e}, false)
								if !ok {
									return
								}
								if r.status == http.StatusOK {
									deletes.Add(1)
									if _, ok := do(key, service.OpIngest, service.Args{Items: []int{e}}, true); !ok {
										return
									}
								}
							}
							// Withdraw the front class for re-verification.
							if wrng.Float64() < cfg.invalidateFraction {
								r, ok := do(key, service.OpInvalidate, service.Args{Element: 0}, false)
								if !ok {
									return
								}
								if r.status == http.StatusAccepted {
									invalidates.Add(1)
								}
							}
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			var repaired service.RepairReport
			for sweep := 0; ; sweep++ {
				why := ""
				for i, key := range keys {
					a := service.Args{Flush: true}
					if w := models[i%cfg.writers].check(key, service.OpClasses, a, exec(ctx, b.ex, key, service.OpClasses, a)); w != "" && why == "" {
						why = key + ": " + w
					}
				}
				if why == "" {
					t.Logf("%s: converged after %d repair sweeps (%d divergences, %d corrections); %d deletes, %d invalidates; wall %v",
						name, sweep, repaired.Divergences, repaired.Corrections, deletes.Load(), invalidates.Load(), time.Since(start).Round(time.Millisecond))
					break
				}
				if sweep == cfg.sweeps {
					t.Fatalf("%s: no convergence within %d repair sweeps: %s", name, cfg.sweeps, why)
				}
				for _, svc := range b.svcs {
					rep := svc.RepairSweep()
					repaired.Divergences += rep.Divergences
					repaired.Corrections += rep.Corrections
				}
			}
			if cfg.deleteFraction > 0 && deletes.Load() == 0 {
				t.Errorf("%s: the run exercised no deletes", name)
			}
		})
	}
}

// TestDifferentialChaos always runs: a small flip-faulted, churned run.
// No fail rate is injected, so it pays no retry backoff, and the vote
// count keeps the residual wrong-verdict rate far below one error per
// corrective fold (docs/REPAIR.md: a correction re-folds O(class²)
// comparisons, each a fresh chance to go wrong).
func TestDifferentialChaos(t *testing.T) {
	runChaos(t, chaosConfig{
		collections: 2, elements: 48, classes: 4, batch: 12, writers: 2, seed: 17,
		faults:         service.FaultSpec{FlipRate: 0.04},
		resilience:     service.ResilienceSpec{Votes: 5, BreakerThreshold: 1000},
		deleteFraction: 0.25, invalidateFraction: 0.1, sweeps: 40,
		service: service.Config{Shards: 2, Workers: 1, BatchSize: 12, Repair: service.RepairConfig{Samples: 64, Seed: 4}},
	})
}

// TestDifferentialChaosSoak is the CI chaos job, gated behind
// ECSORT_CHAOS=1: injected failures and flips, latency-free retries and
// heavy churn, required to converge with no wedged shards.
func TestDifferentialChaosSoak(t *testing.T) {
	if os.Getenv("ECSORT_CHAOS") == "" {
		t.Skip("set ECSORT_CHAOS=1 to run the chaos soak")
	}
	runChaos(t, chaosConfig{
		collections: 6, elements: 192, classes: 16, batch: 24, writers: 4, seed: 23,
		faults:         service.FaultSpec{FailRate: 0.05, FlipRate: 0.05},
		resilience:     service.ResilienceSpec{Votes: 7, Retries: 3, BackoffMs: 1, MaxBackoffMs: 1, BreakerThreshold: 10_000},
		deleteFraction: 0.3, invalidateFraction: 0.1, sweeps: 80,
		service: service.Config{Shards: 4, Workers: 2, BatchSize: 24, Repair: service.RepairConfig{Samples: 192, Seed: 29}},
	})
}

// FuzzDifferential decodes its input into an op sequence and runs it on
// memory, durable and the chan cluster, with every check
// TestDifferential makes.
func FuzzDifferential(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(encodeSteps(generate(seed, 48, "", true)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		steps := decodeSteps(data)
		if fl := replay(t, steps, false); fl != nil {
			t.Fatalf("step %d (%v): %s\n%s", fl.at, steps[fl.at], fl.why, listing(steps[:fl.at+1]))
		}
	})
}
