// spmv-serve runs the SpMV serving subsystem as an HTTP service: a matrix
// registry (operators compiled once, re-tuned online), an adaptive batcher
// that coalesces concurrent single-vector requests into fused multi-RHS
// sweeps, and a worker pool sharded over nonzero-balanced row partitions.
//
// With -members or -peers the server additionally fronts a shard
// coordinator: registering a matrix with "shards": K splits it into
// nonzero-balanced row bands across the member nodes, and Muls against it
// broadcast x and gather the disjoint y bands (replica-aware routing with
// retry and ejection).
//
//	go run ./cmd/spmv-serve [-addr :8707] [-preload FEM/Cantilever:0.05,LP:0.05]
//	go run ./cmd/spmv-serve -members 4 -replicas 2 -preload LP:0.1:4   # in-process fleet
//	go run ./cmd/spmv-serve -members 3 -replicas 2 -route-policy least-loaded -rebalance-skew 0.9
//	go run ./cmd/spmv-serve -peers http://n1:8707,http://n2:8707       # remote fleet
//	go run ./cmd/spmv-serve -log-format json -log-level debug -pprof-addr :6060
//	go run ./cmd/spmv-serve -sched -admit-bytes-per-sec 2e9 -tenants 'acme:5e8,batch:1e8:3e8'
//
// Endpoints:
//
//	POST /v1/matrices          {"suite":"QCD","scale":0.05} | {"rows","cols","entries"} | {"matrix_market"}
//	                           + optional {"shards":4} on a cluster front
//	                           + optional {"symmetric":true|false} (omitted = auto-detect)
//	GET  /v1/matrices          list registered matrices (local and sharded)
//	POST /v1/matrices/{id}/mul {"x":[...]} -> {"y":[...]}
//	                           + optional {"tenant":"acme","class":"latency|standard|bulk","deadline_ms":250}
//	GET  /v1/matrices/{id}/tuning online re-tuner state + measured-vs-modeled roofline
//	POST /v1/matrices/{id}/solve {"method":"cg","b":[...],"tol":1e-8,"max_iters":500} -> session
//	                           + optional {"tenant":"acme","class":"bulk"}
//	GET  /v1/solve             list resident solver sessions
//	GET  /v1/solve/{sid}       session state + residual history (?wait=2s blocks until done)
//	DELETE /v1/solve/{sid}     cancel and remove a session
//	GET  /v1/stats             JSON counters + latency percentiles (+ admission/fairness, cluster rollup)
//	GET  /v1/cluster           shard topology
//	GET  /v1/traces            sampled request traces (?format=chrome for trace_event JSON)
//	GET  /v1/healthz           liveness
//	GET  /v1/buildinfo         module, version, Go version, VCS revision
//	GET  /metrics              Prometheus text exposition (counters + latency histograms)
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	spmv "repro"
	"repro/internal/sched"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8707", "listen address")
	threads := flag.Int("threads", 0, "parallel width of the per-request path (0 = GOMAXPROCS)")
	workers := flag.Int("workers", 0, "sweep pool workers (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "row shards per fused sweep (0 = workers)")
	maxBatch := flag.Int("max-batch", 8, "widest fused sweep (1 disables batching)")
	window := flag.Duration("batch-window", 200*time.Microsecond, "batch linger window")
	adaptive := flag.Bool("adaptive", true, "skip the linger for lone requests when traffic is sparse")
	autoSymmetric := flag.Bool("auto-symmetric", true, "serve numerically symmetric matrices from upper-triangle storage (half the matrix stream); per-request \"symmetric\" overrides")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "request body cap, 413 beyond it (0 = 256 MiB); raise on members sharding very large matrices")
	maxSweeps := flag.Int("max-concurrent-sweeps", 0, "concurrent sweep limit (0 = workers)")
	maxSessions := flag.Int("max-sessions", 0, "resident solver-session cap, 429 beyond it (0 = 16)")
	retuneInterval := flag.Duration("retune-interval", 30*time.Second, "online re-tune scan interval; 0 disables workload-aware re-tuning")
	retuneDrift := flag.Float64("retune-drift", server.DefaultRetuneDrift, "fused-width drift (1 - min/max) that triggers a re-tune evaluation")
	recompactThreshold := flag.Float64("recompact-threshold", server.DefaultRecompactThreshold, "overlay-to-matrix modeled-bytes ratio that triggers background delta recompaction (negative disables)")
	members := flag.Int("members", 0, "in-process shard member nodes (forms a cluster; for demos and smoke tests)")
	peers := flag.String("peers", "", "comma-separated member base URLs (http://host:port) forming a cluster")
	replicas := flag.Int("replicas", 1, "member replicas per shard band")
	ejectAfter := flag.Int("eject-after", 3, "consecutive member failures before ejection from routing")
	routePolicy := flag.String("route-policy", "round-robin", "replica routing policy: round-robin, least-loaded, weighted, or affinity")
	probeInterval := flag.Duration("probe-interval", server.DefaultProbeInterval, "base backoff before an ejected member's half-open recovery probe (doubles per failed probe, capped at 30s)")
	rebalanceSkew := flag.Float64("rebalance-skew", 0, "Jain fairness threshold on per-member served bytes below which row bands are re-split online (0 disables)")
	preload := flag.String("preload", "", "comma-separated suite matrices to register at startup, name[:scale[:shards]] each")
	seed := flag.Int64("seed", 1, "generator seed for preloaded matrices")
	obsSample := flag.Int("obs-sample", server.DefaultObsSample, "trace 1 in N requests into the /v1/traces ring; 0 disables the observability layer entirely")
	obsRing := flag.Int("obs-ring", server.DefaultObsRing, "sampled-trace ring capacity")
	rooflineGBs := flag.Float64("roofline-gbs", 0, "sustained DRAM bandwidth reference for roofline attribution, GB/s (0 = the paper's AMD X2 socket, ~6.6)")
	schedOn := flag.Bool("sched", false, "enable the SLO class scheduler (priority + SJF + aging batch formation)")
	defaultClass := flag.String("default-class", "standard", "SLO class for requests that do not name one: latency, standard, or bulk")
	admitRate := flag.Float64("admit-bytes-per-sec", 0, "default per-tenant admission rate in modeled DRAM bytes/s (0 = unmetered)")
	admitBurst := flag.Int64("admit-burst", 0, "default per-tenant admission burst in modeled bytes (0 = 2s at the rate)")
	schedAging := flag.Duration("sched-aging", 0, "queue wait that promotes a request one SLO class, preventing bulk starvation (0 = 100ms)")
	tenants := flag.String("tenants", "", "per-tenant admission overrides, name:bytes_per_sec[:burst] comma-separated")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug logs every request)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables); keep it off the public listener")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmv-serve:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	cfg := server.DefaultConfig()
	cfg.Threads = *threads
	cfg.Workers = *workers
	cfg.Shards = *shards
	cfg.MaxBatch = *maxBatch
	cfg.BatchWindow = *window
	cfg.Adaptive = *adaptive
	cfg.AutoSymmetric = *autoSymmetric
	cfg.MaxBodyBytes = *maxBodyBytes
	cfg.MaxConcurrentSweeps = *maxSweeps
	cfg.MaxSessions = *maxSessions
	cfg.RetuneInterval = *retuneInterval
	cfg.RetuneDrift = *retuneDrift
	cfg.RecompactThreshold = *recompactThreshold
	cfg.ObsSample = *obsSample
	cfg.ObsRing = *obsRing
	cfg.RooflineGBs = *rooflineGBs
	cfg.Logger = logger
	cfg.Sched, err = buildSchedConfig(*schedOn, *defaultClass, *admitRate, *admitBurst, *schedAging, *tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmv-serve:", err)
		os.Exit(2)
	}
	s := server.New(cfg)
	defer s.Close()

	var transports []server.Transport
	// Admission and scheduling run at the front; in-process members serve
	// the cluster's internal shard traffic unmetered.
	mcfg := cfg
	mcfg.Sched = sched.Config{}
	for i := 0; i < *members; i++ {
		ms := server.New(mcfg)
		defer ms.Close()
		transports = append(transports, server.NewLocalTransport(fmt.Sprintf("local%d", i), ms))
	}
	if *peers != "" {
		for _, u := range strings.Split(*peers, ",") {
			transports = append(transports, server.NewHTTPTransport(strings.TrimSpace(u), nil))
		}
	}
	if len(transports) > 0 {
		policy, err := server.ParseRoutePolicy(*routePolicy)
		if err != nil {
			fatal(logger, "bad -route-policy", err)
		}
		cluster, err := server.NewCluster(transports, server.ClusterConfig{
			Replicas: *replicas, EjectAfter: *ejectAfter,
			Policy:        policy,
			ProbeInterval: *probeInterval,
			RebalanceSkew: *rebalanceSkew,
		})
		if err != nil {
			fatal(logger, "cluster setup failed", err)
		}
		s.AttachCluster(cluster)
		for _, m := range cluster.Members() {
			logger.Info("cluster member attached", slog.String("member", m.Name))
		}
		logger.Info("cluster routing configured",
			slog.String("policy", string(policy)),
			slog.Duration("probe_interval", *probeInterval),
			slog.Float64("rebalance_skew", *rebalanceSkew))
	}

	if *preload != "" {
		for _, spec := range strings.Split(*preload, ",") {
			if err := preloadOne(logger, s, spec, *seed); err != nil {
				fatal(logger, "preload failed", err, slog.String("spec", spec))
			}
		}
	}

	if *pprofAddr != "" {
		// DefaultServeMux carries the pprof handlers (blank import above);
		// the API listener uses its own mux, so profiles stay off it.
		go func() {
			logger.Info("pprof listening", slog.String("addr", *pprofAddr))
			psrv := &http.Server{Addr: *pprofAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 5 * time.Second}
			if err := psrv.ListenAndServe(); err != nil {
				logger.Error("pprof server exited", slog.Any("err", err))
			}
		}()
	}

	logger.Info("spmv-serve listening",
		slog.String("addr", *addr),
		slog.Int("max_batch", cfg.MaxBatch),
		slog.Duration("batch_window", cfg.BatchWindow),
		slog.Bool("adaptive", cfg.Adaptive),
		slog.Duration("retune_interval", cfg.RetuneInterval),
		slog.Int("obs_sample", cfg.ObsSample),
		slog.Bool("sched", cfg.Sched.Active()),
		slog.Bool("admission", cfg.Sched.AdmissionControlled()))
	srv := &http.Server{Addr: *addr, Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	if err := srv.ListenAndServe(); err != nil {
		fatal(logger, "listener exited", err)
	}
}

// buildLogger assembles the process logger from the -log-level and
// -log-format flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func fatal(logger *slog.Logger, msg string, err error, attrs ...any) {
	logger.Error(msg, append([]any{slog.Any("err", err)}, attrs...)...)
	os.Exit(1)
}

// buildSchedConfig assembles the admission/scheduling config from its
// flags. Any tenant override or a default rate implies admission even
// without -sched; -sched alone enables class scheduling unmetered.
func buildSchedConfig(on bool, defaultClass string, rate float64, burst int64, aging time.Duration, tenants string) (sched.Config, error) {
	cfg := sched.Config{
		Enabled:     on,
		BytesPerSec: rate,
		Burst:       burst,
		Aging:       aging,
	}
	class, err := sched.ParseClass(defaultClass)
	if err != nil {
		return sched.Config{}, fmt.Errorf("-default-class: %w", err)
	}
	cfg.DefaultClass = class
	if tenants != "" {
		cfg.Tenants = make(map[string]sched.TenantLimit)
		for _, spec := range strings.Split(tenants, ",") {
			name, limit, err := parseTenant(strings.TrimSpace(spec))
			if err != nil {
				return sched.Config{}, fmt.Errorf("-tenants %q: %w", spec, err)
			}
			cfg.Tenants[name] = limit
		}
	}
	return cfg, nil
}

// parseTenant splits one name:bytes_per_sec[:burst] tenant spec.
func parseTenant(spec string) (string, sched.TenantLimit, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
		return "", sched.TenantLimit{}, fmt.Errorf("want name:bytes_per_sec[:burst]")
	}
	rate, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || rate < 0 {
		return "", sched.TenantLimit{}, fmt.Errorf("bad rate %q", parts[1])
	}
	limit := sched.TenantLimit{BytesPerSec: rate}
	if len(parts) == 3 {
		burst, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || burst < 0 {
			return "", sched.TenantLimit{}, fmt.Errorf("bad burst %q", parts[2])
		}
		limit.Burst = int64(burst)
	}
	return parts[0], limit, nil
}

// preloadOne registers one name[:scale[:shards]] preload spec.
func preloadOne(logger *slog.Logger, s *server.Server, spec string, seed int64) error {
	name, scale, nshards, err := parsePreload(spec)
	if err != nil {
		return err
	}
	if nshards >= 2 {
		c := s.Cluster()
		if c == nil {
			return fmt.Errorf("%d shards requested but no -members/-peers", nshards)
		}
		m, err := spmv.GenerateSuite(name, scale, seed)
		if err != nil {
			return err
		}
		info, err := c.RegisterSharded("", name, m, nshards)
		if err != nil {
			return err
		}
		logger.Info("preloaded sharded matrix",
			slog.String("suite", name), slog.String("matrix", info.ID),
			slog.Int("rows", info.Rows), slog.Int("cols", info.Cols),
			slog.Int64("nnz", info.NNZ),
			slog.Int("shards", info.Shards), slog.Int("replicas", info.Replicas))
		return nil
	}
	info, err := s.RegisterSuite("", name, scale, seed)
	if err != nil {
		return err
	}
	logger.Info("preloaded matrix",
		slog.String("suite", name), slog.String("matrix", info.ID),
		slog.Int("rows", info.Rows), slog.Int("cols", info.Cols),
		slog.Int64("nnz", info.NNZ), slog.String("kernel", info.Kernel),
		slog.Float64("footprint_savings", info.Savings))
	return nil
}

// parsePreload splits one name[:scale[:shards]] preload spec. Suite names
// contain "/" but never ":".
func parsePreload(spec string) (name string, scale float64, shards int, err error) {
	parts := strings.Split(spec, ":")
	name, scale = parts[0], 0.02
	if len(parts) >= 2 {
		if scale, err = strconv.ParseFloat(parts[1], 64); err != nil {
			return "", 0, 0, err
		}
	}
	if len(parts) >= 3 {
		if shards, err = strconv.Atoi(parts[2]); err != nil {
			return "", 0, 0, err
		}
	}
	if len(parts) > 3 {
		return "", 0, 0, fmt.Errorf("want name[:scale[:shards]]")
	}
	return name, scale, shards, nil
}
