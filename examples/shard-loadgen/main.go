// shard-loadgen demonstrates K-shard serving: the same matrix is served by
// a single node and by clusters of K in-process member nodes (the shard
// coordinator of internal/server over LocalTransports), driven by
// concurrent closed-loop clients.
//
// Two throughput views are reported for every topology:
//
//   - measured: wall-clock req/s on this host. In-process members share
//     the host's cores, so this line shows real scaling only on machines
//     with >= K cores.
//   - aggregate (modeled): the bandwidth-bound sustainable rate, each
//     member modeled as one Opteron socket of the paper's testbed
//     (internal/machine). SpMV serving is bandwidth-bound (§5.1), so a
//     node sustains at most BW / bytes-per-sweep requests/s and a K-shard
//     fleet is bounded by its most-loaded member's band. This is the
//     deterministic scaling a fleet of K single-socket nodes delivers,
//     independent of how many cores the demo host happens to have.
//
// Sharding scales because the nonzero-balanced row bands split the matrix
// stream ~K ways while each member still runs its own tuner, batcher and
// fused sweeps. Results are bitwise identical across topologies (verified
// on every run here; see the determinism contract on server.Config).
//
// The run ends with a skewed-member scenario: a 2-fast/1-slow fleet
// (one member's transport delayed, standing in for a degraded node)
// served under replicas=2, first with blind round-robin routing, then
// with the least-loaded policy. Round-robin keeps sending half of each
// band's traffic to the slow member and inherits its latency; the
// least-loaded router sees the slow member's in-flight modeled bytes
// pile up and steers requests to the fast replica of each band.
//
//	go run ./examples/shard-loadgen [-suite LP] [-scale 0.1] [-shards 2,4] [-clients 8] [-requests 100]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	spmv "repro"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/traffic"
)

// drive runs clients*requests closed-loop Muls through mul and returns
// wall-clock req/s.
func drive(mul func([]float64) ([]float64, error), cols, clients, requests int) float64 {
	xs := make([][]float64, clients)
	for g := range xs {
		rng := rand.New(rand.NewSource(int64(g)))
		xs[g] = make([]float64, cols)
		for i := range xs[g] {
			xs[g][i] = rng.NormFloat64()
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				if _, err := mul(xs[g]); err != nil {
					log.Fatal(err)
				}
			}
		}(g)
	}
	wg.Wait()
	return float64(clients*requests) / time.Since(t0).Seconds()
}

func main() {
	suite := flag.String("suite", "LP", "Table 3 suite matrix to serve")
	scale := flag.Float64("scale", 0.1, "matrix scale")
	shardList := flag.String("shards", "2,4", "comma-separated shard counts to compare against single-node")
	clients := flag.Int("clients", 8, "concurrent closed-loop clients")
	requests := flag.Int("requests", 100, "requests per client")
	replicas := flag.Int("replicas", 1, "member replicas per shard band")
	skewDelay := flag.Duration("skew-delay", 2*time.Millisecond, "per-sub-request delay of the slow member in the skewed-fleet scenario (0 skips it)")
	flag.Parse()

	m, err := spmv.GenerateSuite(*suite, *scale, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Each member node is modeled as one socket of the paper's AMD X2
	// testbed sustaining its SpMV-measured fraction of peak DRAM bandwidth.
	amd := machine.AMDX2()
	nodeBW := amd.MemCtrl.PerSocketGBs * amd.SustainedBWFracSocket

	// Single-node baseline.
	single := server.New(server.DefaultConfig())
	defer single.Close()
	info, err := single.Register("m", *suite, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %s twin at scale %g: %dx%d, %d nnz, %.2f MB/sweep modeled\n",
		*suite, *scale, info.Rows, info.Cols, info.NNZ, float64(info.SweepBytes)/1e6)
	fmt.Printf("node model: one %s socket, %.2f GB/s sustained\n\n", amd.Name, nodeBW)

	probe := make([]float64, info.Cols)
	rng := rand.New(rand.NewSource(99))
	for i := range probe {
		probe[i] = rng.NormFloat64()
	}
	want, err := single.Mul("m", probe)
	if err != nil {
		log.Fatal(err)
	}

	singleRate := traffic.SustainedSweepRate(nodeBW, info.SweepBytes)
	singleMeasured := drive(func(x []float64) ([]float64, error) { return single.Mul("m", x) },
		info.Cols, *clients, *requests)
	fmt.Printf("%-8s %10.0f req/s measured  %10.0f req/s aggregate (modeled)  1.00x\n",
		"K=1", singleMeasured, singleRate)

	var lastSpeedup float64
	var lastK int
	for _, ks := range strings.Split(*shardList, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(ks))
		if err != nil || k < 2 {
			log.Fatalf("bad shard count %q", ks)
		}
		transports := make([]server.Transport, k)
		servers := make([]*server.Server, k)
		for i := range transports {
			servers[i] = server.New(server.DefaultConfig())
			transports[i] = server.NewLocalTransport(fmt.Sprintf("node%d", i), servers[i])
		}
		cluster, err := server.NewCluster(transports, server.ClusterConfig{Replicas: *replicas})
		if err != nil {
			log.Fatal(err)
		}
		sinfo, err := cluster.RegisterSharded("m", *suite, m, k)
		if err != nil {
			log.Fatal(err)
		}

		// Bitwise parity with single-node serving, every run.
		got, err := cluster.Mul("m", probe)
		if err != nil {
			log.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				log.Fatalf("K=%d: y[%d] diverged from single-node serving", k, i)
			}
		}

		// The fleet's aggregate rate is bounded by its most-loaded member:
		// every request lands one band sub-request on each node.
		rate := traffic.SustainedSweepRate(nodeBW, sinfo.MaxBandSweepBytes)
		measured := drive(func(x []float64) ([]float64, error) { return cluster.Mul("m", x) },
			info.Cols, *clients, *requests)
		speedup := rate / singleRate
		fmt.Printf("K=%-6d %10.0f req/s measured  %10.0f req/s aggregate (modeled)  %.2fx\n",
			k, measured, rate, speedup)
		lastSpeedup, lastK = speedup, k
		for _, s := range servers {
			s.Close()
		}
	}

	fmt.Printf("\naggregate throughput at K=%d: %.2fx single-node (bandwidth-bound model, bitwise-identical results)\n",
		lastK, lastSpeedup)

	if *skewDelay > 0 {
		skewScenario(m, *suite, want, probe, *clients, *requests, *skewDelay)
	}
}

// slowTransport delays every Mul, standing in for a degraded member (a
// throttled socket, a saturated NIC) that still answers correctly.
type slowTransport struct {
	server.Transport
	delay time.Duration
}

func (t *slowTransport) Mul(id string, x []float64) ([]float64, error) {
	time.Sleep(t.delay)
	return t.Transport.Mul(id, x)
}

// skewScenario serves the matrix from a 2-fast/1-slow three-member fleet
// at K=3, replicas=2, under round-robin and then least-loaded routing,
// reporting measured throughput and the per-member request distribution
// for each policy.
func skewScenario(m *spmv.Matrix, suite string, want, probe []float64, clients, requests int, delay time.Duration) {
	fmt.Printf("\nskewed fleet: 3 members, node2 delayed %s per sub-request, K=3, replicas=2\n", delay)
	run := func(policy server.RoutePolicy) float64 {
		servers := make([]*server.Server, 3)
		transports := make([]server.Transport, 3)
		for i := range servers {
			servers[i] = server.New(server.DefaultConfig())
			defer servers[i].Close()
			transports[i] = server.NewLocalTransport(fmt.Sprintf("node%d", i), servers[i])
		}
		transports[2] = &slowTransport{Transport: transports[2], delay: delay}
		cluster, err := server.NewCluster(transports, server.ClusterConfig{Replicas: 2, Policy: policy})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := cluster.RegisterSharded("m", suite, m, 3); err != nil {
			log.Fatal(err)
		}
		got, err := cluster.Mul("m", probe)
		if err != nil {
			log.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				log.Fatalf("%s: y[%d] diverged from single-node serving", policy, i)
			}
		}
		rate := drive(func(x []float64) ([]float64, error) { return cluster.Mul("m", x) },
			len(probe), clients, requests)
		var dist []string
		for _, mi := range cluster.Members() {
			dist = append(dist, fmt.Sprintf("%s=%d", mi.Name, mi.Requests))
		}
		fmt.Printf("%-14s %10.0f req/s measured   sub-requests: %s\n",
			policy, rate, strings.Join(dist, " "))
		return rate
	}
	rr := run(server.RouteRoundRobin)
	ll := run(server.RouteLeastLoaded)
	fmt.Printf("least-loaded vs round-robin on the skewed fleet: %.2fx\n", ll/rr)
}
