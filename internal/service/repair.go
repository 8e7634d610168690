package service

// The self-repair daemon: a background loop that samples element pairs
// from each collection's published snapshot, re-verifies them against
// the collection's oracle, and — when the oracle's verdict diverges
// from the snapshot — withdraws the classes involved and re-folds, all
// through the shard's single-writer loop. Under a noisy oracle
// (spec.Faults.FlipRate > 0) occasional wrong answers contaminate
// classes; repeated sweeps converge the partition back to ground truth
// because a withdrawn class re-merges against every surviving
// representative (wrong merges split, wrong splits re-merge).
// docs/REPAIR.md covers the convergence argument and tuning.

import (
	"fmt"
	"math/rand"
	"time"

	"ecsort/internal/dist"
	"ecsort/internal/wal"
)

// RepairConfig tunes the background self-repair daemon.
type RepairConfig struct {
	// Interval between sweeps; 0 disables the daemon (explicit
	// RepairSweep calls still work).
	Interval time.Duration
	// Samples is how many element pairs each collection gets per sweep;
	// 0 means 32.
	Samples int
	// Dist selects the distribution sampling element positions within a
	// collection's snapshot (elements ordered by class, classes by
	// smallest member): "uniform" (the default) spreads verification
	// evenly; "geometric", "poisson", and "zeta" skew it toward the
	// front classes — the internal/dist samplers from the paper's
	// Section 4, capped at the collection size.
	Dist string
	// Param is the distribution parameter: p for geometric, lambda for
	// poisson, s for zeta; ignored for uniform. 0 takes the sampler's
	// default.
	Param float64
	// Seed makes the sampling sequence reproducible.
	Seed int64
}

func (c RepairConfig) samples() int {
	if c.Samples <= 0 {
		return 32
	}
	return c.Samples
}

// repairSampler draws element positions. A nil dist means uniform over
// the collection's current size — the only distribution whose support
// must track the collection, so it samples directly instead of through
// a fixed-support dist.Distribution.
type repairSampler struct {
	d dist.Distribution
}

// newRepairSampler validates and builds the sampler for a repair
// config. Unknown distribution names are spec errors.
func newRepairSampler(cfg RepairConfig) (repairSampler, error) {
	switch cfg.Dist {
	case "", "uniform":
		return repairSampler{}, nil
	case "geometric":
		p := cfg.Param
		if p == 0 {
			p = 0.5
		}
		return repairSampler{d: dist.NewGeometric(p)}, nil
	case "poisson":
		l := cfg.Param
		if l == 0 {
			l = 4
		}
		return repairSampler{d: dist.NewPoisson(l)}, nil
	case "zeta":
		z := cfg.Param
		if z == 0 {
			z = 2.5
		}
		return repairSampler{d: dist.NewZeta(z)}, nil
	default:
		return repairSampler{}, fmt.Errorf("%w: repair distribution %q (want uniform, geometric, poisson, or zeta)",
			ErrBadSpec, cfg.Dist)
	}
}

// index draws one position in [0, n).
func (sp repairSampler) index(rng *rand.Rand, n int) int {
	if sp.d == nil {
		return rng.Intn(n)
	}
	return dist.CapAt(sp.d.Sample(rng), n-1)
}

// RepairReport summarizes one repair sweep.
type RepairReport struct {
	// Collections is how many collections the sweep sampled.
	Collections int `json:"collections"`
	// Samples is how many element pairs were re-verified.
	Samples int `json:"samples"`
	// Divergences counts pairs where the oracle's verdict contradicted
	// the published partition.
	Divergences int `json:"divergences"`
	// Corrections counts divergences repaired (classes withdrawn and
	// re-folded).
	Corrections int `json:"corrections"`
	// SkippedDegraded counts collections skipped because their oracle
	// breaker was open — re-verifying against a dead oracle would only
	// re-trip it.
	SkippedDegraded int `json:"skipped_degraded"`
	// Errors counts oracle asks and correction attempts that failed.
	Errors int `json:"errors"`
}

// repairLoop is the daemon goroutine: one RepairSweep per interval
// until the service closes.
func (s *Service) repairLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.Repair.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.RepairSweep()
		}
	}
}

// RepairSweep runs one synchronous repair pass over every collection:
// sample pairs, re-verify against the oracle, and withdraw + re-fold
// the classes of any pair whose published relation the oracle
// contradicts. Sweeps serialize on an internal lock (the daemon and
// explicit callers share one seeded sampling stream). Corrections are
// WAL-logged (invalidate + flush records) through the shard's writer
// loop, so a recovered service replays them like any client operation.
func (s *Service) RepairSweep() RepairReport {
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	var rep RepairReport
	for _, sh := range s.shards {
		sh.mu.RLock()
		cols := make([]*collection, 0, len(sh.cols))
		for _, c := range sh.cols {
			cols = append(cols, c)
		}
		sh.mu.RUnlock()
		for _, c := range cols {
			s.repairCollection(sh, c, &rep)
		}
	}
	s.repairSweeps.Add(1)
	s.repairSamples.Add(int64(rep.Samples))
	s.repairDivergences.Add(int64(rep.Divergences))
	s.repairCorrections.Add(int64(rep.Corrections))
	s.repairSkipped.Add(int64(rep.SkippedDegraded))
	s.repairErrors.Add(int64(rep.Errors))
	if rep.Divergences > 0 {
		s.lastDivergenceNano.Store(time.Now().UnixNano())
	}
	return rep
}

// repairCollection samples and re-verifies one collection.
func (s *Service) repairCollection(sh *shard, c *collection, rep *RepairReport) {
	if _, bad := c.degraded(); bad {
		rep.SkippedDegraded++
		return
	}
	snap := c.snap.Load()
	if snap.Size < 2 {
		return
	}
	rep.Collections++
	elems := snapshotElements(snap)
	for k := 0; k < s.cfg.Repair.samples(); k++ {
		i := s.sampler.index(s.repairRng, len(elems))
		j := s.sampler.index(s.repairRng, len(elems))
		for tries := 0; i == j && tries < 8; tries++ {
			j = s.sampler.index(s.repairRng, len(elems))
		}
		if i == j {
			continue // degenerate draw (e.g. a heavily skewed sampler on a tiny collection)
		}
		a, b := elems[i], elems[j]
		rep.Samples++
		verdict, err := s.reverify(c, a, b)
		if err != nil {
			rep.Errors++
			if _, bad := c.degraded(); bad {
				rep.SkippedDegraded++
				return // the breaker tripped mid-sweep; stop hammering it
			}
			continue
		}
		if verdict == (snap.ClassIndexOf(a) == snap.ClassIndexOf(b)) {
			continue
		}
		rep.Divergences++
		if err := s.repairCorrect(sh, c, a, b); err != nil {
			rep.Errors++
			continue
		}
		rep.Corrections++
		c.repaired.Add(1)
		// The correction re-folded and republished; refresh the sampling
		// frame so later draws see the repaired partition.
		snap = c.snap.Load()
		if snap.Size < 2 {
			return
		}
		elems = snapshotElements(snap)
	}
}

// reverify asks the collection's oracle about one pair, reporting
// middleware failures instead of folding them into a conservative
// answer (a repair verdict must not itself be a guess).
func (s *Service) reverify(c *collection, a, b int) (bool, error) {
	if c.res != nil {
		return c.res.TrySame(s.ctx, a, b)
	}
	//ecsort:ignore oracleround repair re-verification is out-of-session by design: its cost must not skew any sort's Result stats
	return c.orc.Same(a, b), nil
}

// snapshotElements flattens a snapshot's classes into one element list,
// ordered by class (classes by smallest member, members ascending) —
// the frame the repair sampler draws positions from. Skewed samplers
// therefore concentrate verification on the front classes.
func snapshotElements(snap *Snapshot) []int {
	out := make([]int, 0, snap.Size)
	for _, cls := range snap.Classes {
		out = append(out, cls...)
	}
	return out
}

// repairCorrect applies one correction on the shard's writer loop:
// withdraw the merged classes of both elements and re-fold, so the
// members re-verify against the oracle and the published partition
// moves toward ground truth. Each withdrawal is an ordinary logged
// invalidate (write) and the re-fold an ordinary fold with its flush
// record, so replay applies the same withdrawals and re-fold through the
// same apply.
func (s *Service) repairCorrect(sh *shard, c *collection, a, b int) error {
	return s.do(sh, c, "repair", func() error {
		if ra, bad := c.degraded(); bad {
			return &DegradedError{Key: c.key, RetryAfter: ra}
		}
		for _, e := range []int{a, b} {
			// Re-check against the live snapshot (in sync on the writer):
			// the first withdrawal may have pulled the second element
			// pending already — same class, or a concurrent delete won.
			if c.snap.Load().ClassIndexOf(e) < 0 {
				continue
			}
			if _, err := sh.write(c, wal.Record{Type: wal.RecInvalidate, Key: c.key, Elem: e}); err != nil {
				return err
			}
		}
		return s.fold(sh, c)
	})
}
