// Command apresd is the APRES simulation daemon: a long-running HTTP
// service that runs GPU simulations on demand, deduplicates identical
// in-flight requests, bounds concurrency with a worker pool, and persists
// every result in a content-addressed on-disk store so repeated requests —
// across process restarts and across the CLI tools — never simulate twice.
//
// Usage:
//
//	apresd                            # listen on :7845, store under the user cache dir
//	apresd -addr :9000 -jobs 8        # custom port, at most 8 concurrent sims
//	apresd -store /var/lib/apres      # custom store location
//	apresd -timeout 5m -drain 1m      # per-request sim budget, SIGTERM drain budget
//	apresd -shed-watermark 32         # 429 new work past 32 queued callers
//
// Endpoints: POST /v1/simulate, POST /v1/sweep, GET /v1/results/{key},
// GET /v1/traces/{id}, GET /v1/twin/speedups, GET /v1/twin/dram,
// GET /healthz, GET /metrics (Prometheus text format).
// POST /v1/simulate accepts "trace": true for a cycle-level trace artifact
// written under -tracedir and served by GET /v1/traces/{id}. See README.md
// for request examples. SIGTERM/SIGINT drain in-flight requests before
// exit.
//
// Coordinator mode turns the daemon into a cluster front end instead of a
// worker: it runs no simulations itself, but shards /v1/sweep matrices
// across a pool of worker daemons and merges the cells back byte-identical
// to a single-node response.
//
//	apresd -coordinator -nodes http://sim1:7845,http://sim2:7845
//
// Coordinator endpoints: POST /v1/simulate (proxied to the owning worker),
// POST /v1/sweep, POST /v1/cluster/join, GET /v1/cluster/status,
// GET /healthz, GET /metrics. Worker-only flags are rejected up front in
// coordinator mode, and vice versa.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"apres/internal/cluster"
	"apres/internal/harness"
	"apres/internal/server"
	"apres/internal/version"
)

// defaultStoreDir places the result store under the OS user cache
// directory, falling back to the working directory when none exists (e.g.
// bare containers without HOME).
func defaultStoreDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "apres", "resultstore")
	}
	return ".apres-store"
}

// workerOnly and coordinatorOnly partition the flag set by role, so a
// command line mixing roles fails fast with a precise message instead of
// silently ignoring half its flags.
var (
	workerOnly = []string{
		"store", "store-mem", "scale", "sms", "jobs", "smjobs",
		"timeout", "tracedir", "engine", "tolerance", "shed-watermark",
	}
	coordinatorOnly = []string{"nodes", "cell-timeout", "probe-interval"}
)

// validateFlagRoles returns the explicitly-set flags (by name) that do not
// belong to the selected role, sorted for a deterministic error message.
func validateFlagRoles(coordinator bool, set map[string]bool) []string {
	wrongRole := workerOnly
	if !coordinator {
		wrongRole = coordinatorOnly
	}
	var bad []string
	for _, name := range wrongRole {
		if set[name] {
			bad = append(bad, "-"+name)
		}
	}
	sort.Strings(bad)
	return bad
}

// setFlags collects the flags the command line set explicitly.
func setFlags() map[string]bool {
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

func main() {
	shared := harness.Flags{Store: defaultStoreDir()}
	shared.Register(flag.CommandLine, false, map[string]string{
		"store":     "result-store directory (empty = no persistence)",
		"scale":     "workload iteration scale factor",
		"sms":       "override number of SMs (0 = Table III value)",
		"jobs":      "max concurrent simulations (0 = GOMAXPROCS)",
		"smjobs":    "default per-SM parallelism for each simulation; requests override with \"sm_jobs\" (0|1 = serial engine)",
		"engine":    "default serving engine for requests that do not pick one: cycle-accurate (default) | twin | auto",
		"tolerance": "default auto-engine escalation threshold on the relative IPC error bound (0 = calibration default)",
	})
	var (
		addr     = flag.String("addr", ":7845", "listen address")
		memLRU   = flag.Int("store-mem", 512, "in-memory result-store front size in entries")
		timeout  = flag.Duration("timeout", 10*time.Minute, "per-request simulation budget (0 = unbounded)")
		drain    = flag.Duration("drain", 30*time.Second, "how long SIGTERM waits for in-flight requests")
		traceDir = flag.String("tracedir", filepath.Join(os.TempDir(), "apres-traces"),
			"directory for trace artifacts from traced /v1/simulate requests (empty = disable tracing)")
		shedMark = flag.Int("shed-watermark", 0, "shed simulate/sweep requests with 429 once this many callers are queued for the pool (0 = never shed)")

		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator instead of a worker (requires -nodes or runtime /v1/cluster/join)")
		nodes       = flag.String("nodes", "", "comma-separated worker base URLs for -coordinator (e.g. http://sim1:7845,http://sim2:7845)")
		cellTimeout = flag.Duration("cell-timeout", 2*time.Minute, "coordinator: per-cell dispatch attempt budget")
		probeEvery  = flag.Duration("probe-interval", 15*time.Second, "coordinator: worker health probe period")
	)
	flag.Parse()

	if shared.Version {
		fmt.Println(version.Stamp())
		return
	}

	if bad := validateFlagRoles(*coordinator, setFlags()); len(bad) > 0 {
		role, other := "worker", "coordinators"
		if *coordinator {
			role, other = "coordinator", "workers"
		}
		log.Fatalf("apresd: flag(s) %s only apply to %s, not to %s mode — remove them or change the role",
			strings.Join(bad, ", "), other, role)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *coordinator {
		runCoordinator(ctx, *addr, *nodes, *cellTimeout, *probeEvery, *drain)
		return
	}

	if *shedMark < 0 {
		log.Fatalf("apresd: -shed-watermark must be >= 0, got %d", *shedMark)
	}
	r, err := shared.Runner(*memLRU)
	if err != nil {
		log.Fatalf("apresd: %v", err)
	}
	if r.Store != nil {
		log.Printf("apresd: result store at %s", r.Store.Dir())
	} else {
		log.Printf("apresd: running without a persistent result store")
	}

	srv := server.New(server.Options{
		Runner:        r,
		SimTimeout:    *timeout,
		TraceDir:      *traceDir,
		ShedWatermark: *shedMark,
	})

	log.Printf("apresd %s listening on %s (scale=%g sms=%d jobs=%d smjobs=%d timeout=%v shed-watermark=%d)",
		version.Stamp(), *addr, r.Scale, r.SMs, r.Jobs, r.SMJobs, *timeout, *shedMark)
	if err := srv.ListenAndServe(ctx, *addr, *drain); err != nil {
		log.Fatalf("apresd: %v", err)
	}
	log.Printf("apresd: drained, bye")
}

// runCoordinator starts the cluster coordinator: probe the initial pool,
// keep probing in the background, serve the cluster API until SIGTERM.
func runCoordinator(ctx context.Context, addr, nodeList string, cellTimeout, probeEvery, drain time.Duration) {
	var urls []string
	for _, u := range strings.Split(nodeList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if cellTimeout <= 0 {
		log.Fatalf("apresd: -cell-timeout must be > 0, got %v", cellTimeout)
	}
	if probeEvery <= 0 {
		log.Fatalf("apresd: -probe-interval must be > 0, got %v", probeEvery)
	}
	coord, err := cluster.New(cluster.Options{Nodes: urls, CellTimeout: cellTimeout})
	if err != nil {
		log.Fatalf("apresd: %v", err)
	}
	if len(urls) == 0 {
		log.Printf("apresd: coordinator starting with an empty pool; workers must POST /v1/cluster/join")
	}
	coord.ProbeAll(ctx)
	go coord.ProbeLoop(ctx, probeEvery)
	st := coord.Status()
	log.Printf("apresd %s coordinating %d node(s) (%d live) on %s (cell-timeout=%v probe-interval=%v)",
		version.Stamp(), len(st.Nodes), st.LiveNodes, addr, cellTimeout, probeEvery)
	srv := cluster.NewServer(coord)
	if err := srv.ListenAndServe(ctx, addr, drain); err != nil {
		log.Fatalf("apresd: %v", err)
	}
	log.Printf("apresd: coordinator drained, bye")
}
