package harness

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"ecsort/internal/cluster"
	"ecsort/internal/core"
	"ecsort/internal/service"
)

// Cluster-level stress: the service sweep one level up. Where
// RunServiceSweep scales shard counts inside one process, this harness
// scales backend node counts behind a coordinator — same concurrent
// batched writers, same ground-truth verification, with every operation
// crossing the Transport boundary (ChanTransport: the wire codec and
// message-passing discipline without socket noise).

// ClusterStressConfig shapes one cluster drive.
type ClusterStressConfig struct {
	// Collections is the number of independent collections. 0 means 16.
	Collections int
	// Elements is the universe size per collection. 0 means 1024.
	Elements int
	// Classes is the class count per collection. 0 means 16.
	Classes int
	// Batch is the number of elements per ingest call. 0 means 64.
	Batch int
	// Writers is the number of concurrent client goroutines. 0 means 8.
	Writers int
	// Seed drives the synthetic labels and ingestion order.
	Seed int64
	// Service tunes each backend node's service (Shards is per node).
	Service service.Config
}

func (c *ClusterStressConfig) setDefaults() {
	if c.Collections <= 0 {
		c.Collections = 16
	}
	if c.Elements <= 0 {
		c.Elements = 1024
	}
	if c.Classes <= 0 {
		c.Classes = 16
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	if c.Writers <= 0 {
		c.Writers = 8
	}
}

// ClusterStressReport is the outcome of one cluster drive.
type ClusterStressReport struct {
	Config         ClusterStressConfig `json:"config"`
	Nodes          int                 `json:"nodes"`
	Elapsed        time.Duration       `json:"elapsed"`
	Elements       int64               `json:"elements"`
	Batches        int64               `json:"batches"`
	ElementsPerSec float64             `json:"elements_per_sec"`
	BatchesPerSec  float64             `json:"batches_per_sec"`
	// Spread is collections-per-node, routing order — the placement
	// picture the sweep exists to show.
	Spread []int `json:"spread"`
	// HeavyPlacements counts collections the weight estimator steered
	// off their hash slot.
	HeavyPlacements int64 `json:"heavy_placements"`
	// Verified reports every collection's final fresh classes matched
	// its ground-truth partition through the coordinator.
	Verified bool `json:"verified"`
}

// RunClusterStress assembles nodes backends behind a coordinator,
// drives cfg's concurrent batched workload through it, and verifies
// every collection against ground truth.
func RunClusterStress(nodes int, cfg ClusterStressConfig) (ClusterStressReport, error) {
	cfg.setDefaults()
	if nodes <= 0 {
		nodes = 1
	}
	svcs := make([]*service.Service, nodes)
	backends := make([]cluster.Backend, nodes)
	for i := range svcs {
		svcs[i] = service.New(cfg.Service)
		node := cluster.NewNode(svcs[i])
		node.SetLogger(func(string, ...any) {})
		backends[i] = cluster.Backend{Name: fmt.Sprintf("node-%d", i), Transport: cluster.NewChanTransport(node)}
	}
	defer func() {
		for _, s := range svcs {
			s.Close()
		}
	}()
	co, err := cluster.New(cluster.Config{}, backends)
	if err != nil {
		return ClusterStressReport{}, err
	}
	defer co.Close()
	cl := service.NewClient(co)
	//ecsort:ignore ctxflow harness lifetime root: a stress drive owns its whole run
	ctx := context.Background()

	type job struct {
		key    string
		labels []int
		order  []int
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	jobs := make([]job, cfg.Collections)
	for i := range jobs {
		labels := make([]int, cfg.Elements)
		for e := range labels {
			labels[e] = rng.Intn(cfg.Classes)
		}
		jobs[i] = job{
			key:    fmt.Sprintf("cstress-%03d", i),
			labels: labels,
			order:  rng.Perm(cfg.Elements),
		}
		if _, err := cl.CreateCollection(ctx, jobs[i].key, service.OracleSpec{Kind: service.KindLabel, Labels: labels}); err != nil {
			return ClusterStressReport{}, err
		}
	}

	errCh := make(chan error, cfg.Writers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += cfg.Writers {
				j := jobs[i]
				for lo := 0; lo < len(j.order); lo += cfg.Batch {
					hi := min(lo+cfg.Batch, len(j.order))
					if _, err := cl.Ingest(ctx, j.key, j.order[lo:hi], false); err != nil {
						errCh <- fmt.Errorf("harness: cluster ingest %s: %w", j.key, err)
						return
					}
				}
				if _, err := cl.Ingest(ctx, j.key, nil, true); err != nil {
					errCh <- fmt.Errorf("harness: cluster flush %s: %w", j.key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return ClusterStressReport{}, err
	default:
	}

	rep := ClusterStressReport{Config: cfg, Nodes: nodes, Elapsed: elapsed}
	rep.Elements = int64(cfg.Collections) * int64(cfg.Elements)
	batchesPerCol := (cfg.Elements + cfg.Batch - 1) / cfg.Batch
	rep.Batches = int64(cfg.Collections) * int64(batchesPerCol+1) // +1 flush call
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ElementsPerSec = float64(rep.Elements) / secs
		rep.BatchesPerSec = float64(rep.Batches) / secs
	}
	rep.HeavyPlacements = co.HeavyPlacements()
	rep.Spread = make([]int, nodes)
	for i, s := range svcs {
		rep.Spread[i] = len(s.Collections())
	}

	rep.Verified = true
	for _, j := range jobs {
		snap, err := cl.Classes(ctx, j.key, true)
		if err != nil {
			return ClusterStressReport{}, err
		}
		got := core.Result{Classes: snap.Classes}
		if snap.Size != cfg.Elements || !core.SameClassification(got.Labels(cfg.Elements), j.labels) {
			rep.Verified = false
		}
	}
	if !rep.Verified {
		return rep, errors.New("harness: cluster drive diverged from ground truth")
	}
	return rep, nil
}

// RunClusterSweep runs the same workload across several node counts.
func RunClusterSweep(nodeCounts []int, cfg ClusterStressConfig) ([]ClusterStressReport, error) {
	reports := make([]ClusterStressReport, 0, len(nodeCounts))
	for _, nodes := range nodeCounts {
		rep, err := RunClusterStress(nodes, cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: nodes=%d: %w", nodes, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// RenderClusterSweep renders the sweep as an aligned table.
func RenderClusterSweep(w io.Writer, reports []ClusterStressReport) error {
	if len(reports) == 0 {
		return nil
	}
	cfg := reports[0].Config
	fmt.Fprintf(w, "cluster ingestion sweep: %d collections × %d elements (%d classes), batch %d, %d writers, %d shards/node\n",
		cfg.Collections, cfg.Elements, cfg.Classes, cfg.Batch, cfg.Writers, cfg.Service.Shards)
	fmt.Fprintf(w, "%6s %12s %12s %16s %7s %9s\n",
		"nodes", "elements/s", "batches/s", "spread", "heavy", "verified")
	for _, rep := range reports {
		if _, err := fmt.Fprintf(w, "%6d %12.0f %12.0f %16s %7d %9v\n",
			rep.Nodes, rep.ElementsPerSec, rep.BatchesPerSec,
			spreadString(rep.Spread), rep.HeavyPlacements, rep.Verified); err != nil {
			return err
		}
	}
	return nil
}

// spreadString formats collections-per-node compactly.
func spreadString(spread []int) string {
	s := ""
	for i, n := range spread {
		if i > 0 {
			s += "/"
		}
		s += strconv.Itoa(n)
	}
	return s
}

// WriteClusterSweepCSV writes the sweep's raw observations.
func WriteClusterSweepCSV(w io.Writer, reports []ClusterStressReport) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"nodes", "collections", "elements_per_collection", "classes", "batch", "writers",
		"shards_per_node", "elapsed_seconds", "elements", "batches",
		"elements_per_sec", "batches_per_sec", "spread", "heavy_placements", "verified",
	}); err != nil {
		return err
	}
	for _, rep := range reports {
		cfg := rep.Config
		if err := cw.Write([]string{
			strconv.Itoa(rep.Nodes),
			strconv.Itoa(cfg.Collections),
			strconv.Itoa(cfg.Elements),
			strconv.Itoa(cfg.Classes),
			strconv.Itoa(cfg.Batch),
			strconv.Itoa(cfg.Writers),
			strconv.Itoa(cfg.Service.Shards),
			strconv.FormatFloat(rep.Elapsed.Seconds(), 'f', 6, 64),
			strconv.FormatInt(rep.Elements, 10),
			strconv.FormatInt(rep.Batches, 10),
			strconv.FormatFloat(rep.ElementsPerSec, 'f', 1, 64),
			strconv.FormatFloat(rep.BatchesPerSec, 'f', 1, 64),
			spreadString(rep.Spread),
			strconv.FormatInt(rep.HeavyPlacements, 10),
			strconv.FormatBool(rep.Verified),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
