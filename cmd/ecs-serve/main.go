// Command ecs-serve runs the equivalence class sorting classification
// service: a long-running HTTP/JSON server where each collection owns an
// incremental sorter over a pluggable equivalence oracle, collections
// are sharded across single-writer goroutines, each flush folds batched
// inserts into the answer in at most two rounds (the inserts against the
// known classes, then the unmatched ones among themselves), and reads
// are served from copy-on-flush snapshots.
//
// Usage:
//
//	ecs-serve -addr :8080 -shards 16 -batch 128 -flush-interval 250ms
//
// With -data-dir the service is durable: accepted operations are
// write-ahead logged per shard, checkpoints bound replay work, and a
// restart (clean or crashed) rebuilds every collection bit-identically:
//
//	ecs-serve -data-dir /var/lib/ecsort -fsync interval -checkpoint-interval 30s
//
// Collections tolerate churn (deletes, class invalidation) and
// unreliable oracles: specs may declare fault-injection and resilience
// profiles (timeouts, retries, majority voting, a circuit breaker that
// degrades the collection to read-only), and a background self-repair
// daemon re-verifies sampled element pairs against each collection's
// oracle, withdrawing and re-folding divergent classes:
//
//	ecs-serve -repair-interval 5s -repair-samples 64 -repair-dist zeta
//
// Then, over HTTP:
//
//	curl -X PUT  localhost:8080/v1/collections/demo -d '{"kind":"label","labels":[0,1,0,1,2]}'
//	curl -X PUT  localhost:8080/v1/collections/er -d '{"kind":"label","labels":[0,1,0,1,2],"algorithm":"er"}'
//	curl -X POST localhost:8080/v1/collections/demo/items -d '{"items":[0,1,2,3,4]}'
//	curl -X DELETE localhost:8080/v1/collections/demo/items/3
//	curl -X POST 'localhost:8080/v1/collections/demo/classes/0/invalidate?flush=1'
//	curl localhost:8080/v1/collections/demo/classes?fresh=1
//	curl localhost:8080/healthz/ready
//	curl localhost:8080/v1/collections/demo/classes/3
//	curl localhost:8080/v1/collections/demo/stats
//	curl localhost:8080/v1/algorithms
//	curl localhost:8080/metrics
//
// Each collection may pin its own sorting regimen via the PUT body's
// "algorithm" field (default: the incremental engine);
// GET /v1/algorithms lists the registry with hint requirements.
//
// The same binary scales past one machine. A backend node serves the
// cluster wire protocol next to its HTTP API; a coordinator owns no
// collections and routes every request to the nodes it joined:
//
//	ecs-serve -addr :8081 -cluster-node :9091 -data-dir /var/lib/ecsort-1
//	ecs-serve -addr :8082 -cluster-node :9092 -data-dir /var/lib/ecsort-2
//	ecs-serve -addr :8080 -cluster-coordinator -join localhost:9091,localhost:9092
//
// Clients talk to the coordinator exactly as they would a single
// server; see docs/ARCHITECTURE.md for placement and failure semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ecsort/internal/cluster"
	"ecsort/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		shards        = flag.Int("shards", 8, "number of single-writer shards collections are hashed across")
		batch         = flag.Int("batch", 0, "pending-element flush threshold (0: flush after every ingest call)")
		flushInterval = flag.Duration("flush-interval", 0, "max snapshot staleness when -batch > 0 (0: no timer)")
		processors    = flag.Int("processors", 0, "comparisons per physical round in each session (0: n, the paper's setting)")
		workers       = flag.Int("workers", 0, "width of the service-wide execution pool shared by all collections (0: GOMAXPROCS)")
		dataDir       = flag.String("data-dir", "", "durable data directory: per-shard WALs + checkpoints, replayed on boot (empty: memory-only)")
		fsync         = flag.String("fsync", "", "WAL fsync policy: always, interval, or never (default interval; see docs/PERSISTENCE.md)")
		fsyncInterval = flag.Duration("fsync-interval", 0, "max unsynced-WAL window under -fsync interval (0: 100ms)")
		checkpointInt = flag.Duration("checkpoint-interval", 0, "periodic per-shard checkpoint+WAL-truncation (0: only on shutdown)")
		maxSegBytes   = flag.Int64("max-segment-bytes", 0, "rotate a shard's WAL segment when it exceeds this size (0: never)")
		repairInt     = flag.Duration("repair-interval", 0, "background self-repair sweep interval (0: daemon off; see docs/REPAIR.md)")
		repairSamples = flag.Int("repair-samples", 0, "element pairs re-verified per collection per sweep (0: 32)")
		repairDist    = flag.String("repair-dist", "", "repair sampling distribution: uniform, geometric, poisson, or zeta (default uniform)")
		repairParam   = flag.Float64("repair-dist-param", 0, "distribution parameter: p (geometric), lambda (poisson), s (zeta); 0: sampler default")
		repairSeed    = flag.Int64("repair-seed", 0, "seed for the repair sampling stream")
		clusterNode   = flag.String("cluster-node", "", "also answer the cluster wire protocol on this TCP address (backend-node mode)")
		clusterCoord  = flag.Bool("cluster-coordinator", false, "run as a cluster coordinator: no local collections, requests route to the -join nodes")
		join          = flag.String("join", "", "comma-separated backend wire addresses the coordinator routes across (with -cluster-coordinator)")
		downCooldown  = flag.Duration("down-cooldown", 0, "how long an unreachable node's collections reject with 503 before the next probe (0: 3s)")
	)
	flag.Parse()
	if *workers < 0 {
		log.Fatalf("ecs-serve: -workers must be >= 0, got %d", *workers)
	}
	if *clusterCoord {
		if *clusterNode != "" {
			log.Fatalf("ecs-serve: -cluster-coordinator and -cluster-node are mutually exclusive (a coordinator owns no collections)")
		}
		runCoordinator(*addr, *join, *downCooldown)
		return
	}
	if *join != "" {
		log.Fatalf("ecs-serve: -join requires -cluster-coordinator")
	}

	svc, err := service.Open(service.Config{
		Shards:             *shards,
		BatchSize:          *batch,
		FlushInterval:      *flushInterval,
		Processors:         *processors,
		Workers:            *workers,
		DataDir:            *dataDir,
		Fsync:              *fsync,
		FsyncInterval:      *fsyncInterval,
		CheckpointInterval: *checkpointInt,
		MaxSegmentBytes:    *maxSegBytes,
		Repair: service.RepairConfig{
			Interval: *repairInt,
			Samples:  *repairSamples,
			Dist:     *repairDist,
			Param:    *repairParam,
			Seed:     *repairSeed,
		},
	})
	if err != nil {
		log.Fatalf("ecs-serve: %v", err)
	}
	defer svc.Close()
	if rec := svc.Recovery(); rec.Durable {
		log.Printf("ecs-serve: recovered %s: %d collection(s) from checkpoints, %d WAL record(s) over %d segment(s), %d torn tail(s) truncated, in %s",
			*dataDir, rec.Collections, rec.Records, rec.Segments, rec.TornTails, rec.Duration.Round(time.Microsecond))
	}

	// Backend-node mode: answer the cluster wire protocol next to the
	// HTTP API (the node's own /metrics and /healthz stay scrapeable).
	if *clusterNode != "" {
		node := cluster.NewNode(svc)
		l, err := net.Listen("tcp", *clusterNode)
		if err != nil {
			log.Fatalf("ecs-serve: cluster-node listen: %v", err)
		}
		defer l.Close()
		go func() {
			if err := node.ServeTCP(l); err != nil {
				log.Printf("ecs-serve: cluster-node: %v", err)
			}
		}()
		log.Printf("ecs-serve: cluster node answering wire protocol on %s", l.Addr())
	}

	serveHTTP(*addr, svc.Handler(),
		fmt.Sprintf("listening on %s (%d shards, batch %d)", *addr, *shards, *batch))
}

// runCoordinator is the -cluster-coordinator main: assemble TCP
// transports to every joined node, discover what they own, and serve
// the coordinator's HTTP API until shutdown.
func runCoordinator(addr, join string, downCooldown time.Duration) {
	var backends []cluster.Backend
	for _, nodeAddr := range strings.Split(join, ",") {
		nodeAddr = strings.TrimSpace(nodeAddr)
		if nodeAddr == "" {
			continue
		}
		backends = append(backends, cluster.Backend{
			Name:      nodeAddr,
			Transport: cluster.NewTCPTransport(nodeAddr),
		})
	}
	if len(backends) == 0 {
		log.Fatalf("ecs-serve: -cluster-coordinator needs -join with at least one node address")
	}
	co, err := cluster.New(cluster.Config{DownCooldown: downCooldown}, backends)
	if err != nil {
		log.Fatalf("ecs-serve: %v", err)
	}
	defer co.Close()
	serveHTTP(addr, co.Handler(),
		fmt.Sprintf("coordinator listening on %s, routing across %d node(s): %s",
			addr, len(backends), strings.Join(co.Nodes(), ", ")))
}

// serveHTTP runs one HTTP server until SIGINT/SIGTERM, draining
// connections before returning (and so before deferred service/
// coordinator closes run).
func serveHTTP(addr string, handler http.Handler, banner string) {
	server := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	log.Printf("ecs-serve: %s", banner)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ecs-serve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Printf("ecs-serve: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			log.Printf("ecs-serve: shutdown: %v", err)
		}
	}
}
