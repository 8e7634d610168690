package service

// Durability glue: boot-time recovery (checkpoint + WAL-tail replay) and
// checkpointing, bridging the service's collections to internal/wal. All
// of the code here runs either before the shard goroutines start (Open's
// recovery pass, which inherits the same single-writer exclusivity — the
// go statement publishes the recovered state) or on a shard goroutine
// (checkpoints), so the shard-ownership discipline checked by ecs-vet
// holds throughout. The on-disk format is specified in
// docs/PERSISTENCE.md.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ecsort/internal/adversary"
	"ecsort/internal/agents"
	"ecsort/internal/core"
	"ecsort/internal/model"
	"ecsort/internal/oracle"
	"ecsort/internal/wal"
)

// engine bundles what buildSorter assembles for one collection: the
// classification engine, the regimen name, the effective oracle the
// engine tests against (the resilience middleware when configured, the
// bare spec oracle otherwise), and the middleware handle itself (nil
// for plain collections) — the breaker the service consults for
// degraded-mode gating.
type engine struct {
	srt      sorter
	algoName string
	orc      model.Oracle
	res      *oracle.Resilient
}

// buildSorter constructs the classification stack a spec asks for: the
// ground-truth oracle, optionally wrapped in fault injection
// (spec.Faults) and the resilience middleware (any Faults or Resilience
// setting), feeding the incremental engine by default or a
// batch regimen from the registry. Spec errors surface here — at create
// time and again on recovery, where a checkpointed spec that no longer
// validates must fail the boot rather than silently drop a collection.
func (s *Service) buildSorter(spec OracleSpec) (engine, error) {
	base, err := spec.Build()
	if err != nil {
		return engine{}, err
	}
	alg, algoName, err := spec.algorithm()
	if err != nil {
		return engine{}, err
	}
	if nw, ok := base.(*agents.Network); ok {
		// Agent collections answer whole worker-pool chunks as waves of
		// real protocol sessions on the service pool — the view
		// ecsort.NewAgentSession builds on too — instead of one
		// handshake per Same.
		base = nw.Batch(s.pool)
	}
	eng := engine{algoName: algoName, orc: base}
	if spec.Faults != nil || spec.Resilience != nil {
		// A faulted oracle is always fronted by the middleware: raw
		// injected errors must never reach a session, whose oracle
		// interface has no failure channel.
		var un oracle.Unreliable
		if spec.Faults != nil {
			un = adversary.NewFlaky(base, spec.Faults.config())
		} else {
			un = oracle.AsUnreliable(base)
		}
		var rcfg oracle.ResilientConfig
		if spec.Resilience != nil {
			rcfg = spec.Resilience.config()
		}
		// Bind asks to the service lifetime so Close interrupts them.
		rcfg.Ctx = s.ctx
		eng.res = oracle.NewResilient(un, rcfg)
		eng.orc = eng.res
	}
	if b, ok := eng.orc.(model.BatchOracle); ok {
		eng.orc = &countingBatchOracle{Oracle: b, batch: b, svc: s}
	}
	opts := []model.Option{model.WithPool(s.pool), model.Workers(s.pool.Size()), model.WithContext(s.ctx)}
	if s.cfg.Processors > 0 {
		opts = append(opts, model.Processors(s.cfg.Processors))
	}
	if alg == nil {
		inc, err := core.NewIncremental(model.NewSession(eng.orc, model.CR, opts...))
		if err != nil {
			return engine{}, err
		}
		eng.srt = incSorter{inc}
		return eng, nil
	}
	eng.srt = newBatchSorter(alg, eng.orc, s.ctx, opts)
	return eng, nil
}

// metaName is the data-directory identity file, written on first boot.
// It pins the parameters that must not drift across restarts.
const metaName = "ecsort-meta.json"

// dirMeta is the data directory's identity. Shards is load-bearing:
// collections hash onto shards by key, so reopening a directory with a
// different shard count would place recovered collections on shards no
// lookup ever routes to. Recovery refuses the mismatch instead.
type dirMeta struct {
	FormatVersion int `json:"format_version"`
	Shards        int `json:"shards"`
}

// checkMeta verifies the data directory matches this service's
// configuration, stamping a fresh directory with the current identity.
func (s *Service) checkMeta() error {
	path := filepath.Join(s.cfg.DataDir, metaName)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		b, err = json.Marshal(dirMeta{FormatVersion: wal.FormatVersion, Shards: len(s.shards)})
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return fmt.Errorf("service: stamp data directory: %w", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: read data directory meta: %w", err)
	}
	var m dirMeta
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("%w: %s: %v", wal.ErrCorrupt, path, err)
	}
	if m.FormatVersion < wal.MinFormatVersion || m.FormatVersion > wal.FormatVersion {
		return fmt.Errorf("service: data directory %s uses format version %d; this build reads versions %d through %d",
			s.cfg.DataDir, m.FormatVersion, wal.MinFormatVersion, wal.FormatVersion)
	}
	if m.FormatVersion < wal.FormatVersion {
		// Readable older directory: restamp to the current version now
		// that this build will write current-version segments and
		// checkpoints into it, so a later downgrade fails here — at the
		// meta file, with a clear message — instead of mid-replay on an
		// unreadable newer segment header.
		b, err := json.Marshal(dirMeta{FormatVersion: wal.FormatVersion, Shards: m.Shards})
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return fmt.Errorf("service: restamp data directory: %w", err)
		}
	}
	if m.Shards != len(s.shards) {
		return fmt.Errorf("service: data directory %s was written with %d shards but the service is configured with %d; "+
			"collection placement would change — reopen with Shards=%d", s.cfg.DataDir, m.Shards, len(s.shards), m.Shards)
	}
	return nil
}

// recoverAll rebuilds every shard from the data directory. Called by Open
// before any shard goroutine starts.
func (s *Service) recoverAll() error {
	start := time.Now()
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return fmt.Errorf("service: create data directory: %w", err)
	}
	if err := s.checkMeta(); err != nil {
		return err
	}
	for _, sh := range s.shards {
		if err := s.recoverShard(sh); err != nil {
			s.closeRecoveredLogs()
			return fmt.Errorf("service: recover %s: %w", sh.dir, err)
		}
	}
	s.recovery.Durable = true
	s.recovery.Duration = time.Since(start)
	return nil
}

// closeRecoveredLogs closes every log a failed recovery pass already
// opened, so Open does not leak file handles. Runs before any shard
// goroutine starts, with the exclusivity the goroutines would have had.
//
//ecsort:shard-goroutine
func (s *Service) closeRecoveredLogs() {
	for _, sh := range s.shards {
		if sh.wal != nil {
			sh.wal.Close()
		}
	}
}

// recoverShard rebuilds one shard: load its checkpoint (if any), replay
// the WAL tail at or above the checkpoint's generation, reopen the final
// segment for appending (creating generation 1 in a fresh directory), and
// sweep segments the last checkpoint already superseded.
//
// Runs before the shard goroutine starts, with the same exclusivity the
// goroutine will have — nothing else can touch the shard until Open's go
// statement publishes it.
//
//ecsort:shard-goroutine
func (s *Service) recoverShard(sh *shard) error {
	if err := os.MkdirAll(sh.dir, 0o755); err != nil {
		return fmt.Errorf("create shard directory: %w", err)
	}
	fromGen := uint64(1)
	cp, ok, err := wal.ReadCheckpoint(sh.dir)
	if err != nil {
		return err
	}
	if ok {
		fromGen = cp.WALGen
		for i := range cp.Collections {
			if err := s.restoreCollection(sh, &cp.Collections[i]); err != nil {
				return err
			}
		}
		s.recovery.Collections += len(cp.Collections)
	}
	sum, err := wal.Replay(sh.dir, fromGen, func(rec wal.Record) error {
		return s.applyRecord(sh, rec)
	})
	if err != nil {
		return err
	}
	s.recovery.Records += sum.Records
	s.recovery.Segments += sum.Segments
	if sum.TornTail {
		s.recovery.TornTails++
	}
	openGen := fromGen
	if sum.LastGen > openGen {
		openGen = sum.LastGen
	}
	var l *wal.Log
	if sum.Segments == 0 {
		// Fresh directory, or a crash after the checkpoint was published
		// but before its new segment was created.
		l, err = wal.Create(sh.dir, openGen, s.walOptions())
	} else {
		l, err = wal.OpenAppend(sh.dir, openGen, s.walOptions())
	}
	if err != nil {
		return err
	}
	sh.wal = l
	sh.gen = openGen
	// A crash between checkpoint publication and log truncation leaves
	// superseded segments behind; replay ignored them, now delete them.
	return wal.RemoveSegmentsBelow(sh.dir, fromGen)
}

// restoreCollection rebuilds one collection from its checkpointed state:
// spec → oracle + engine through the same validation as a live create,
// then Restore hands the engine its flat answer, pending tail, and cost
// so it continues bit-identically.
//
//ecsort:shard-goroutine
func (s *Service) restoreCollection(sh *shard, cs *wal.CollectionState) error {
	var spec OracleSpec
	if err := json.Unmarshal(cs.Spec, &spec); err != nil {
		return fmt.Errorf("%w: collection %q: undecodable spec: %v", wal.ErrCorrupt, cs.Key, err)
	}
	eng, err := s.buildSorter(spec)
	if err != nil {
		return fmt.Errorf("collection %q: %w", cs.Key, err)
	}
	st := model.Stats{Comparisons: cs.Comparisons, Rounds: int(cs.Rounds), MaxRoundSize: int(cs.MaxRoundSize)}
	if err := eng.srt.Restore(cs.Members, cs.Pending, cs.Elems, cs.Offs, st, int(cs.Flushes)); err != nil {
		return fmt.Errorf("%w: collection %q: %v", wal.ErrCorrupt, cs.Key, err)
	}
	if _, taken := sh.cols[cs.Key]; taken {
		return fmt.Errorf("%w: collection %q appears twice in checkpoint", wal.ErrCorrupt, cs.Key)
	}
	c := newCollection(cs.Key, spec, eng)
	c.ingested.Store(cs.Ingested)
	c.batches.Store(cs.Batches)
	c.publish()
	sh.add(c)
	if eng.srt.Pending() > 0 {
		sh.dirty[c] = struct{}{}
	}
	return nil
}

// applyRecord re-applies one replayed WAL record through the same code
// the live operation ran after appending it: newCollection and add for a
// create, remove for a drop, applyResilience for a resilience update, and
// apply for a batch, flush, delete or invalidate. Only the appends are
// skipped (the record already exists), and the fold-latency gauges stay
// alone. Flush records re-fold at exactly the boundaries the live service
// chose, which is what makes replayed classes and stats bit-identical:
// the fold schedule is read back from the log, never re-decided from
// (possibly changed) batching config.
//
//ecsort:shard-goroutine
func (s *Service) applyRecord(sh *shard, rec wal.Record) error {
	c, exists := sh.cols[rec.Key]
	if rec.Type == wal.RecCreate {
		var spec OracleSpec
		if err := json.Unmarshal(rec.Spec, &spec); err != nil {
			return fmt.Errorf("create %q: undecodable spec: %v", rec.Key, err)
		}
		if exists {
			return fmt.Errorf("create %q: collection already exists", rec.Key)
		}
		eng, err := s.buildSorter(spec)
		if err != nil {
			return fmt.Errorf("create %q: %w", rec.Key, err)
		}
		sh.add(newCollection(rec.Key, spec, eng))
		return nil
	}
	if !exists {
		return fmt.Errorf("record type %d for %q: no such collection", rec.Type, rec.Key)
	}
	switch rec.Type {
	case wal.RecDrop:
		sh.remove(c)
	case wal.RecResilience:
		var rs ResilienceSpec
		if err := json.Unmarshal(rec.Spec, &rs); err != nil {
			return fmt.Errorf("resilience update for %q: undecodable spec: %v", rec.Key, err)
		}
		if err := s.applyResilience(c, rs); err != nil {
			return fmt.Errorf("resilience update for %q: %v", rec.Key, err)
		}
	case wal.RecInvalidate:
		if !c.srt.Has(rec.Elem) {
			return fmt.Errorf("invalidate for %q: element %d not added", rec.Key, rec.Elem)
		}
		// A live invalidate only logs for merged elements, so under a
		// deterministic oracle the element is merged here too. Under a
		// noisy oracle replayed folds may merge differently, leaving the
		// element pending — then the withdrawal it asked for has already
		// happened, and apply's refusal, which changes nothing, is the
		// consistent reading (replay bit-identity is only promised for
		// deterministic oracles; see docs/PERSISTENCE.md).
		sh.apply(c, rec)
	default:
		if _, err := sh.apply(c, rec); err != nil {
			return fmt.Errorf("record type %d for %q: %w", rec.Type, rec.Key, err)
		}
	}
	return nil
}

// applyResilience installs rs as c's live resilience profile: the spec
// (so checkpoints persist the new profile) and the middleware's tuning
// (breaker history preserved — see oracle.Resilient.UpdateConfig). Runs
// on the owning shard goroutine only, from the live update op or replay.
//
//ecsort:shard-goroutine
func (s *Service) applyResilience(c *collection, rs ResilienceSpec) error {
	if c.res == nil {
		return fmt.Errorf("%w: collection has no resilience middleware to retune (create it with a resilience or faults profile)", ErrBadSpec)
	}
	rsCopy := rs
	c.spec.Resilience = &rsCopy
	rcfg := rsCopy.config()
	rcfg.Ctx = s.ctx
	c.res.UpdateConfig(rcfg)
	return nil
}

// durableState captures the collection for a checkpoint. The slices are
// live views into the sorter — valid because the checkpoint encodes them
// synchronously on the shard goroutine, before any further Add or Flush
// can run.
func (c *collection) durableState() (wal.CollectionState, error) {
	specJSON, err := json.Marshal(c.spec)
	if err != nil {
		return wal.CollectionState{}, fmt.Errorf("collection %q: unencodable spec: %v", c.key, err)
	}
	elems, offs := c.srt.Flat()
	st := c.srt.Stats()
	return wal.CollectionState{
		Key:          c.key,
		Spec:         specJSON,
		Members:      c.srt.Members(),
		Pending:      c.srt.PendingSlice(),
		Elems:        elems,
		Offs:         offs,
		Ingested:     c.ingested.Load(),
		Batches:      c.batches.Load(),
		Flushes:      int64(c.srt.Flushes()),
		Comparisons:  st.Comparisons,
		Rounds:       int64(st.Rounds),
		MaxRoundSize: int64(st.MaxRoundSize),
	}, nil
}

// checkpointShard serializes the shard's collections to the snapshot
// file, rotates to a fresh WAL segment, and deletes the segments the
// checkpoint superseded. Shard goroutine only. The step order makes every
// crash window safe:
//
//  1. Create the next segment (empty; replaying it is a no-op).
//  2. Durably publish the checkpoint pointing at that segment. Until the
//     rename lands, boots use the old checkpoint and replay the old
//     segments — including the new empty one — in order.
//  3. Swap the shard's log to the new segment. Only now do appends go to
//     a generation the new checkpoint covers.
//  4. Delete segments below the checkpoint generation. A crash first
//     leaves stale segments that replay ignores and the next boot sweeps.
//
//ecsort:shard-goroutine
func (s *Service) checkpointShard(sh *shard) error {
	if sh.wal == nil {
		return nil
	}
	cp := &wal.Checkpoint{WALGen: sh.gen + 1}
	sh.mu.RLock()
	keys := make([]string, 0, len(sh.cols))
	for key := range sh.cols {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		cs, err := sh.cols[key].durableState()
		if err != nil {
			sh.mu.RUnlock()
			return err
		}
		cp.Collections = append(cp.Collections, cs)
	}
	sh.mu.RUnlock()

	next, err := wal.Create(sh.dir, cp.WALGen, s.walOptions())
	if err != nil {
		return err
	}
	if err := wal.WriteCheckpoint(sh.dir, cp); err != nil {
		// Abandon the rotation: remove the unused segment so the next
		// attempt can recreate it, and keep appending to the current one.
		next.Close()
		os.Remove(next.Path())
		return err
	}
	old := sh.wal
	sh.wal = next
	sh.gen = cp.WALGen
	old.Close()
	if err := wal.RemoveSegmentsBelow(sh.dir, cp.WALGen); err != nil {
		return err
	}
	s.checkpoints.Add(1)
	s.lastCheckpointNano.Store(time.Now().UnixNano())
	return nil
}
