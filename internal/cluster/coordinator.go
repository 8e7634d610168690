package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ecsort/internal/service"
)

// Backend names one node and the transport that reaches it.
type Backend struct {
	Name      string
	Transport Transport
}

// Config tunes a Coordinator. The zero value is serviceable.
type Config struct {
	// DownCooldown is how long a node stays marked down — its
	// collections rejecting with 503 + Retry-After — after a transport
	// failure, before the next call probes it again. 0 means 3s.
	DownCooldown time.Duration
}

func (c Config) downCooldown() time.Duration {
	if c.DownCooldown <= 0 {
		return 3 * time.Second
	}
	return c.DownCooldown
}

// route is one collection's placement record.
type route struct {
	node   int
	weight float64
}

// nodeClient is the coordinator's view of one backend.
type nodeClient struct {
	name string
	t    Transport

	mu        sync.Mutex
	downUntil time.Time
	lastErr   error

	routed atomic.Int64 // requests routed to this node
	errs   atomic.Int64 // transport-level failures
}

// down reports whether the node is inside its down cooldown and how
// long remains.
func (nc *nodeClient) down() (time.Duration, bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if rem := time.Until(nc.downUntil); rem > 0 {
		return rem, true
	}
	return 0, false
}

func (nc *nodeClient) markDown(err error, cooldown time.Duration) {
	nc.errs.Add(1)
	nc.mu.Lock()
	nc.downUntil = time.Now().Add(cooldown)
	nc.lastErr = err
	nc.mu.Unlock()
}

func (nc *nodeClient) markUp() {
	nc.mu.Lock()
	nc.downUntil = time.Time{}
	nc.mu.Unlock()
}

// Coordinator owns the collection → node routing table and fans every
// operation out to the owning node (or, for list/health/metrics, to the
// whole fleet). It shares no memory with its nodes: every exchange is a
// Transport call. A node that stops answering degrades — its
// collections reject writes with 503 + Retry-After through the exact
// DegradedError path a tripped oracle breaker uses — without taking any
// other node's collections down.
type Coordinator struct {
	cfg   Config
	nodes []*nodeClient
	start time.Time

	mu     sync.RWMutex
	routes map[string]route
	load   []float64

	heavyPlacements atomic.Int64
}

// New assembles a coordinator over the given backends and discovers
// collections the nodes already own (durable nodes recover their
// collections before joining; the coordinator must route to them, not
// around them). Backends must be non-empty.
func New(cfg Config, backends []Backend) (*Coordinator, error) {
	if len(backends) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one backend")
	}
	co := &Coordinator{
		cfg:    cfg,
		start:  time.Now(),
		routes: make(map[string]route),
		load:   make([]float64, len(backends)),
	}
	for _, b := range backends {
		co.nodes = append(co.nodes, &nodeClient{name: b.Name, t: b.Transport})
	}
	if err := co.discover(); err != nil {
		return nil, err
	}
	return co, nil
}

// discover asks each node what it already owns and seeds the routing
// table. A key owned by two nodes is a deployment error worth failing
// loudly over: routing would silently split its history.
func (co *Coordinator) discover() error {
	//ecsort:ignore ctxflow boot lifetime root: discovery runs once inside New, before any caller context exists
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	owner := make(map[string]int)
	for i, nc := range co.nodes {
		req, _ := encodeRequest(nil, opList, "", service.Args{}) // carries no spec, cannot fail
		resp, err := nc.t.Call(ctx, req)
		if err != nil {
			return fmt.Errorf("cluster: discovering node %s: %w", nc.name, err)
		}
		body, err := decodeResponse(resp)
		if err != nil {
			return fmt.Errorf("cluster: discovering node %s: %w", nc.name, err)
		}
		var infos []service.CollectionInfo
		if err := json.Unmarshal(body, &infos); err != nil {
			return fmt.Errorf("cluster: discovering node %s: %w", nc.name, err)
		}
		for _, info := range infos {
			if prev, dup := owner[info.Key]; dup {
				return fmt.Errorf("cluster: collection %q owned by both %s and %s",
					info.Key, co.nodes[prev].name, nc.name)
			}
			owner[info.Key] = i
			// Recovered collections re-enter load accounting at the
			// estimator's floor for their universe (no spec on the wire:
			// weigh by size, skew unknown ≈ uniform).
			w := float64(info.Universe)
			co.routes[info.Key] = route{node: i, weight: w}
			co.load[i] += w
		}
	}
	return nil
}

// Close closes every backend transport.
func (co *Coordinator) Close() error {
	var first error
	for _, nc := range co.nodes {
		if err := nc.t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// owner resolves a key's node index.
func (co *Coordinator) owner(key string) (int, error) {
	co.mu.RLock()
	r, ok := co.routes[key]
	co.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", service.ErrNotFound, key)
	}
	return r.node, nil
}

// call routes one exchange to node idx, translating transport failures
// into the degraded path: the node is marked down for the cooldown and
// the caller sees a DegradedError (503 + Retry-After upstream), exactly
// like a collection whose oracle breaker tripped. Remote service
// failures pass through typed (*service.DegradedError for degraded
// collections, *RemoteError otherwise). The returned bytes are the
// node's success body. call counts a collection op as routed once the
// node is past its down check; the coordinator's own fleet probes
// (Health, List) never show as traffic.
func (co *Coordinator) call(ctx context.Context, idx int, o op, key string, a service.Args) ([]byte, error) {
	req, err := encodeRequest(nil, o, key, a)
	if err != nil {
		return nil, err
	}
	nc := co.nodes[idx]
	if ra, down := nc.down(); down {
		return nil, &service.DegradedError{Key: key, RetryAfter: ra}
	}
	if o != opHealth && o != opList {
		nc.routed.Add(1)
	}
	resp, err := nc.t.Call(ctx, req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller's own context was canceled or hit its deadline
			// mid-call (a client disconnect, a short client timeout).
			// That says nothing about the node's health: surface the
			// context error without marking the node down, or one
			// impatient client would 503 the node's collections for
			// every other client for the whole cooldown.
			return nil, ctxErr
		}
		nc.markDown(err, co.cfg.downCooldown())
		return nil, &service.DegradedError{Key: key, RetryAfter: co.cfg.downCooldown()}
	}
	out, err := decodeResponse(resp)
	if err != nil {
		var re *RemoteError
		if !errors.As(err, &re) {
			// Not a remote failure but an undecodable response: the
			// stream produced garbage, treat the node as down.
			nc.markDown(err, co.cfg.downCooldown())
			return nil, &service.DegradedError{Key: key, RetryAfter: co.cfg.downCooldown()}
		}
		nc.markUp()
		if re.Status == 503 && re.RetryAfter > 0 {
			// Reconstruct the degraded rejection so the coordinator's
			// HTTP layer (and Go callers) see the same typed error a
			// single-binary deployment produces.
			return nil, &service.DegradedError{Key: key, RetryAfter: re.RetryAfter}
		}
		return nil, re
	}
	nc.markUp()
	return out, nil
}

var _ service.Executor = (*Coordinator)(nil)

// Do runs one collection operation on the cluster — the executor behind
// the coordinator's HTTP route table and its typed service.Client. A
// create is placed and created on its node, a drop is forwarded and
// then frees the route, and every other operation goes to the key's
// owner. The success body is the owner's, returned unread: for the HTTP
// routes, byte for byte what a single node writes.
func (co *Coordinator) Do(ctx context.Context, dst []byte, o service.Op, key string, a service.Args) ([]byte, error) {
	var body []byte
	if o == service.OpCreate {
		var err error
		if body, err = co.create(ctx, key, a); err != nil {
			return nil, err
		}
	} else {
		idx, err := co.owner(key)
		if err != nil {
			return nil, err
		}
		if body, err = co.call(ctx, idx, op(o), key, a); err != nil {
			return nil, err
		}
		if o == service.OpDrop {
			co.release(key)
		}
	}
	if len(dst) == 0 {
		return body, nil
	}
	return append(dst, body...), nil
}

// create places key on a node — hash slot, or least-loaded for
// estimator-heavy specs — and creates it there.
func (co *Coordinator) create(ctx context.Context, key string, a service.Args) ([]byte, error) {
	if key == "" {
		return nil, fmt.Errorf("%w: empty collection key", service.ErrBadSpec)
	}
	if a.Spec == nil {
		return nil, fmt.Errorf("%w: create without a spec", service.ErrBadSpec)
	}
	// Estimate outside the lock: sampling scales with the sample budget,
	// not the universe, but it still has no business inside the route
	// lock's critical section.
	weight := estimateWeight(a.Spec)
	co.mu.Lock()
	idx, reserved := 0, false
	if r, ok := co.routes[key]; ok {
		// Already placed (or reserved by a concurrent create): forward
		// and let the owner answer (409 if it truly exists).
		idx = r.node
	} else {
		idx = co.place(key, weight)
		// Reserve the route before the remote create so a concurrent
		// create for the same key forwards to this same node instead of
		// re-running place() against shifted load and planting a second,
		// silently orphaned copy elsewhere.
		co.routes[key] = route{node: idx, weight: weight}
		co.load[idx] += weight
		reserved = true
	}
	co.mu.Unlock()

	body, err := co.call(ctx, idx, op(service.OpCreate), key, a)
	if err != nil && reserved {
		// Keep the reservation on a 409: the collection exists on that
		// node (a concurrent create won), so the route is correct.
		// Anything else means the create did not take — roll the
		// reservation back so the key can be placed again.
		var re *RemoteError
		if !errors.As(err, &re) || re.Status != 409 {
			co.mu.Lock()
			if r, ok := co.routes[key]; ok && r.node == idx {
				co.unload(r)
				delete(co.routes, key)
			}
			co.mu.Unlock()
		}
	}
	return body, err
}

// release frees a dropped key's route.
func (co *Coordinator) release(key string) {
	co.mu.Lock()
	if r, ok := co.routes[key]; ok {
		co.unload(r)
		delete(co.routes, key)
	}
	co.mu.Unlock()
}

// unload takes r's weight off its node's load. Callers hold co.mu.
func (co *Coordinator) unload(r route) {
	co.load[r.node] = max(co.load[r.node]-r.weight, 0)
}

// List merges every reachable node's collections, sorted by key. Down
// nodes contribute their routed keys as placeholders (key and owner
// only) so the listing shows what exists even when its owner is out.
func (co *Coordinator) List(ctx context.Context) []service.CollectionInfo {
	var infos []service.CollectionInfo
	seen := make(map[string]bool)
	for i := range co.nodes {
		out, err := co.call(ctx, i, opList, "", service.Args{})
		if err != nil {
			continue
		}
		var part []service.CollectionInfo
		if json.Unmarshal(out, &part) == nil {
			for _, info := range part {
				infos = append(infos, info)
				seen[info.Key] = true
			}
		}
	}
	co.mu.RLock()
	for key := range co.routes {
		if !seen[key] {
			infos = append(infos, service.CollectionInfo{Key: key})
		}
	}
	co.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos
}

// NodeState is one backend's status in a cluster health report.
type NodeState struct {
	Name        string            `json:"name"`
	Up          bool              `json:"up"`
	RetryAfterS float64           `json:"retry_after_seconds,omitempty"`
	LastError   string            `json:"last_error,omitempty"`
	Collections int               `json:"collections"`
	Degraded    []DegradedBackend `json:"degraded,omitempty"`
	Routed      int64             `json:"routed_total"`
	Errors      int64             `json:"route_errors_total"`
	Corrupt     int64             `json:"corrupt_frames,omitempty"`
}

// Health polls every node and reports per-node state. A node inside its
// down cooldown is reported down without a probe call; anything else is
// asked live (which itself probes nodes whose cooldown just elapsed).
func (co *Coordinator) Health(ctx context.Context) []NodeState {
	states := make([]NodeState, len(co.nodes))
	for i, nc := range co.nodes {
		st := NodeState{Name: nc.name, Routed: nc.routed.Load()}
		if ra, down := nc.down(); down {
			st.Up = false
			st.RetryAfterS = ra.Seconds()
			nc.mu.Lock()
			if nc.lastErr != nil {
				st.LastError = nc.lastErr.Error()
			}
			nc.mu.Unlock()
			st.Collections = co.routedTo(i)
			st.Errors = nc.errs.Load()
			states[i] = st
			continue
		}
		out, err := co.call(ctx, i, opHealth, "", service.Args{})
		st.Errors = nc.errs.Load()
		if err != nil {
			st.Up = false
			st.RetryAfterS = co.cfg.downCooldown().Seconds()
			st.LastError = err.Error()
			st.Collections = co.routedTo(i)
			states[i] = st
			continue
		}
		var h nodeHealth
		if err := json.Unmarshal(out, &h); err == nil {
			st.Up = true
			st.Collections = h.Collections
			st.Degraded = h.Degraded
			st.Corrupt = h.Corrupt
		}
		states[i] = st
	}
	return states
}

// routedTo counts the routing table's collections on node idx.
func (co *Coordinator) routedTo(idx int) int {
	co.mu.RLock()
	defer co.mu.RUnlock()
	n := 0
	for _, r := range co.routes {
		if r.node == idx {
			n++
		}
	}
	return n
}

// Nodes reports the backend names in routing order.
func (co *Coordinator) Nodes() []string {
	names := make([]string, len(co.nodes))
	for i, nc := range co.nodes {
		names[i] = nc.name
	}
	return names
}

// Uptime is how long the coordinator has been assembled.
func (co *Coordinator) Uptime() time.Duration { return time.Since(co.start) }

// HeavyPlacements counts collections the estimator steered off their
// hash slot.
func (co *Coordinator) HeavyPlacements() int64 { return co.heavyPlacements.Load() }
