package cluster

import (
	"hash/fnv"

	"ecsort/internal/service"
)

// Placement: default routing is FNV(key) mod N — the service's own
// key → shard hash, one level up. The refinement is the sample-based
// weight estimator below, per the partitioning playbook of the
// parallel-sorting literature ("Optimal Round and Sample-Size
// Complexity for Partitioning in Parallel Sorting": a small sample
// suffices to pick good splitters; "Robust Massively Parallel Sorting":
// placement must be robust to skew and duplicates, which is exactly
// what zeta-distributed class sizes produce). A collection's fold cost
// scales with its universe and with how concentrated its classes are —
// one dominant class means most pairs compare equal and merge work
// piles onto one structure — so heavy-looking collections are biased
// onto the least-loaded node instead of their hash slot.

// placementSamples is the sample budget per collection. The sample-size
// literature's point is that this needs to be small: a constant-size
// sample estimates the class-mass distribution well enough for
// placement, and estimation cost must not scale with the universe.
const placementSamples = 64

// defaultHeavyFactor: a collection whose estimated weight is at least
// this multiple of the current mean node load abandons hash placement
// for least-loaded placement.
const defaultHeavyFactor = 2.0

// hashSlot is the default FNV(key) mod N route.
func hashSlot(key string, nodes int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(nodes))
}

// estimateWeight scores a collection spec's expected load from a
// constant-size sample of its universe: weight = n × (½ + skew), where
// skew is the sampled share of the most common class. A uniform
// workload scores ≈ n/2 + n/k̂; a single-giant-class workload (zeta
// head) scores ≈ 1.5 n. Only the identity sources the spec itself
// carries are sampled — labels, fault states, graph shape signatures —
// so estimation never touches an oracle.
func estimateWeight(spec *service.OracleSpec) float64 {
	n := spec.N()
	if n <= 0 {
		return 0
	}
	ids := make(map[uint64]int, placementSamples)
	samples := placementSamples
	if n < samples {
		samples = n
	}
	top := 0
	for s := 0; s < samples; s++ {
		// Evenly spaced positions: deterministic (placement must agree
		// across coordinator restarts) and immune to adversarial
		// front-loading in a way a prefix scan is not.
		i := s * n / samples
		var id uint64
		// The sampled field must be the one N() is keyed off — selected
		// by Kind, exactly mirroring OracleSpec.N() — or a spec carrying
		// a stray second field would be indexed past the field that
		// actually sized the loop. The bounds guard makes a malformed
		// spec score conservatively instead of panicking; Build rejects
		// it downstream either way.
		switch spec.Kind {
		case service.KindFault, service.KindFaultAgents:
			if i < len(spec.States) {
				id = spec.States[i]
			}
		case service.KindGraphIso:
			if i < len(spec.Graphs) {
				id = graphSignature(&spec.Graphs[i])
			}
		default:
			if i < len(spec.Labels) {
				id = uint64(spec.Labels[i])
			}
		}
		if ids[id]++; ids[id] > top {
			top = ids[id]
		}
	}
	skew := float64(top) / float64(samples)
	return float64(n) * (0.5 + skew)
}

// graphSignature is a cheap iso-invariant-ish bucket for a graph spec:
// vertex count, edge count, and a degree-sequence hash. Collisions
// only make the skew estimate conservative — two non-isomorphic graphs
// sharing a signature look like one heavier class.
func graphSignature(g *service.GraphSpec) uint64 {
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		if e[0] >= 0 && e[0] < g.N {
			deg[e[0]]++
		}
		if e[1] >= 0 && e[1] < g.N {
			deg[e[1]]++
		}
	}
	// Degree histogram folded into an order-independent hash.
	var h uint64 = uint64(g.N)<<32 ^ uint64(len(g.Edges))
	for _, d := range deg {
		h += 0x9e3779b97f4a7c15 * (uint64(d)*uint64(d) + 1)
	}
	return h
}

// place picks the node for a new collection: the hash slot by default,
// the least-loaded node when the estimator calls the collection heavy
// relative to what nodes already carry. Caller holds the coordinator's
// route lock.
func (co *Coordinator) place(key string, weight float64) int {
	nodes := len(co.nodes)
	slot := hashSlot(key, nodes)
	var total float64
	for _, l := range co.load {
		total += l
	}
	if total == 0 {
		// Empty cluster: no load signal yet, hash placement is as good
		// as any and keeps single-collection deployments deterministic.
		return slot
	}
	mean := total / float64(nodes)
	if weight < defaultHeavyFactor*mean {
		return slot
	}
	// Heavy: argmin load, ties to the lowest index for determinism.
	best := 0
	for i := 1; i < nodes; i++ {
		if co.load[i] < co.load[best] {
			best = i
		}
	}
	co.heavyPlacements.Add(1)
	return best
}
