// Package deepep models DeepEP, DeepSeek's expert-parallel all-to-all
// library, on top of the cluster graph and flow simulator: FP8 token
// dispatch and BF16 combine with IB deduplication (one copy per target
// node) and NVLink forwarding at the receiver (§4.3, §4.4). It
// regenerates Figure 7 and the node-limited-routing ablation.
//
// Reported bandwidth follows DeepEP's convention: the byte count
// credits one hidden-vector copy per *distinct target node* (the
// RDMA-level token count, source node included when targeted), divided
// by the measured completion time. Because NVLink forwarding dedups the
// wire traffic to remote nodes only, this figure can exceed the NIC
// line rate — exactly as in the paper's Figure 7.
//
// Token routing is embarrassingly parallel across ranks, and this
// package exploits that: each rank draws its gate scores from an RNG
// stream derived from (seed, rank), so per-rank traffic matrices can be
// generated on the worker pool and merged in rank order with bit-exact
// results for any worker count (all counters are integers scaled by
// integral payloads). See DESIGN.md for the determinism model.
package deepep

import (
	"fmt"
	"sync"

	"dsv3/internal/cluster"
	"dsv3/internal/moe"
	"dsv3/internal/netsim"
	"dsv3/internal/parallel"
	"dsv3/internal/units"
)

// Config parametrizes one dispatch/combine measurement.
type Config struct {
	// TokensPerGPU is the per-rank batch (4096 in Figure 7).
	TokensPerGPU int
	// DispatchBytes is the per-token payload for dispatch: FP8 hidden
	// vector, 7168 bytes for DeepSeek-V3.
	DispatchBytes units.Bytes
	// CombineBytes is the per-token payload for combine: BF16, 14336 B.
	CombineBytes units.Bytes
	// Gate routes tokens to experts.
	Gate moe.Gate
	// LaunchOverhead is the per-kernel software cost.
	LaunchOverhead units.Seconds
	// PerPeerRateCap bounds each (rank, remote node) RDMA stream: QP
	// pipelining limits keep a single-peer stream well below line rate,
	// which is why EP16 (one remote peer) sits lowest in Figure 7.
	// DeepEP's own EP16 point implies ~21.5 GB/s per peer.
	PerPeerRateCap units.BytesPerSecond
	// DeterministicTraffic replaces each flow's sampled byte count with
	// its category mean (IB / receiver-forward / local). At 4096
	// tokens/GPU the sampled counts sit within ~2% of the mean anyway
	// (symmetry makes every flow in a category i.i.d.), and collapsing
	// them lets the fluid simulator finish whole categories in single
	// events — orders of magnitude fewer rate recomputations at EP128.
	DeterministicTraffic bool
	// SampleTokens, when positive and below TokensPerGPU, routes only
	// this many tokens per GPU and scales the traffic matrix up to the
	// full TokensPerGPU. Useful with DeterministicTraffic, where only
	// the category means matter.
	SampleTokens int
}

// sampleTokens returns how many tokens per GPU are actually routed:
// the full batch, or the SampleTokens subsample. Traffic is later
// scaled back up by TokensPerGPU/sampleTokens in one place (bytes and
// measure share this helper, so the scale cannot drift).
func (cfg Config) sampleTokens() int {
	if cfg.SampleTokens > 0 && cfg.SampleTokens < cfg.TokensPerGPU {
		return cfg.SampleTokens
	}
	return cfg.TokensPerGPU
}

// V3Config returns the Figure 7 configuration.
func V3Config() Config {
	return Config{
		TokensPerGPU:   4096,
		DispatchBytes:  7168,
		CombineBytes:   14336,
		Gate:           moe.V3Gate(),
		LaunchOverhead: 20 * units.Microsecond,
		PerPeerRateCap: 21.5 * units.GB,
	}
}

// Result reports one kernel's simulated execution.
type Result struct {
	// Time is the completion time of the slowest flow plus launch.
	Time units.Seconds
	// CountedBytesPerGPU is the DeepEP-convention byte credit per rank.
	CountedBytesPerGPU units.Bytes
	// WireBytesPerGPU is the actual IB bytes injected per rank.
	WireBytesPerGPU units.Bytes
	// NVLinkBytesPerGPU is the intra-node forwarding volume per rank.
	NVLinkBytesPerGPU units.Bytes
	// Bandwidth = CountedBytesPerGPU / Time (the Figure 7 y-axis).
	Bandwidth units.BytesPerSecond
	// MeanNodes / MeanRemoteNodes are the dedup factors (§4.3).
	MeanNodes       float64
	MeanRemoteNodes float64
}

// traffic is the aggregated flow matrix one kernel induces, held in
// flat dense arrays: indices are deterministic (no map iteration), and
// counters are integers until the final byte scaling, so merging
// per-rank contributions is exact in any association.
type traffic struct {
	nodes, gpus int
	// ibCount[rank*nodes+node] counts deduplicated IB token copies from
	// a rank to a remote node.
	ibCount []int
	// fwdCount[(node*gpus+from)*gpus+to] counts receiver-side NVLink
	// forwards on a node from the plane-peer GPU to an expert GPU.
	fwdCount []int
	// localCount uses the same indexing for source-side NVLink
	// multicasts on the sender's own node.
	localCount []int
	// countedTokens is the DeepEP byte-credit token count (sum of M).
	countedTokens int
	remote        int // sum of remote-node copies over tokens
	tokens        int
}

func newTraffic(c *cluster.Cluster) *traffic {
	nodes, gpus := c.Cfg.Nodes, c.Cfg.GPUsPerNode
	return &traffic{
		nodes:      nodes,
		gpus:       gpus,
		ibCount:    make([]int, c.NumRanks()*nodes),
		fwdCount:   make([]int, nodes*gpus*gpus),
		localCount: make([]int, nodes*gpus*gpus),
	}
}

// merge adds b into tr. Integer counters make the result independent
// of merge grouping.
func (tr *traffic) merge(b *traffic) {
	for i, v := range b.ibCount {
		tr.ibCount[i] += v
	}
	for i, v := range b.fwdCount {
		tr.fwdCount[i] += v
	}
	for i, v := range b.localCount {
		tr.localCount[i] += v
	}
	tr.countedTokens += b.countedTokens
	tr.remote += b.remote
	tr.tokens += b.tokens
}

// routeRank routes one rank's token sample into a fresh traffic using
// the rank-derived RNG stream.
func routeRank(c *cluster.Cluster, cfg Config, place moe.Placement, rank, sample int, seed int64) *traffic {
	tr := newTraffic(c)
	rng := parallel.TaskRand(seed, rank)
	router := moe.NewRouter(cfg.Gate)
	disp := moe.NewDispatcher(place)
	scores := make([]float64, cfg.Gate.Experts)
	srcNode, srcGPU := c.RankOf(rank)
	for t := 0; t < sample; t++ {
		cfg.Gate.RandomScoresInto(scores, rng)
		disp.Dispatch(router.Route(scores, nil))
		targets := disp.Nodes()
		tr.tokens++
		tr.countedTokens += len(targets)
		for _, node := range targets {
			base := node * tr.gpus
			if node == srcNode {
				// Source-side NVLink multicast to local experts.
				for gpu := 0; gpu < tr.gpus; gpu++ {
					if gpu != srcGPU && disp.HasGPU(node, gpu) {
						tr.localCount[(base+srcGPU)*tr.gpus+gpu]++
					}
				}
				continue
			}
			tr.remote++
			// One deduplicated IB copy to the peer GPU in the same
			// plane, then receiver-side NVLink forwarding.
			tr.ibCount[rank*tr.nodes+node]++
			for gpu := 0; gpu < tr.gpus; gpu++ {
				if gpu != srcGPU && disp.HasGPU(node, gpu) {
					tr.fwdCount[(base+srcGPU)*tr.gpus+gpu]++
				}
			}
		}
	}
	return tr
}

// routeKey identifies a token-routing plan: the cluster layout, the
// gate, the per-rank sample size, and the RNG seed fully determine the
// integer traffic matrix (payload bytes only scale it later).
type routeKey struct {
	cluster cluster.Config
	gate    moe.Gate
	sample  int
	seed    int64
}

var (
	routeMu    sync.Mutex
	routeCache = map[routeKey]*traffic{}
)

// routeCacheLimit bounds the memoization map. A full sweep touches a
// handful of keys; when a long-lived process probes past the bound
// (many seeds or cluster shapes), the cache resets wholesale — plans
// are recomputed deterministically on demand, so eviction can never
// change results, only amortization.
const routeCacheLimit = 64

// route returns the traffic matrix for routing every rank's token
// sample, fanning the ranks out over the parallel worker pool. Per-rank
// seed derivation makes the result identical for any worker count.
//
// Plans are memoized per (cluster config, gate, sample, seed): a sweep
// probing the same EP configuration repeatedly (dispatch vs combine
// reuse different seeds, but benchmarks, tests and layered experiments
// revisit identical keys) pays the Monte-Carlo routing cost once. The
// cached traffic is immutable after publication — every consumer only
// reads it. Two goroutines racing on the same cold key both compute the
// identical plan and one wins the store; determinism is unaffected.
func route(c *cluster.Cluster, cfg Config, seed int64) (*traffic, error) {
	if err := cfg.Gate.Validate(); err != nil {
		return nil, err
	}
	place := moe.Placement{Experts: cfg.Gate.Experts, Nodes: c.Cfg.Nodes, GPUsPerNode: c.Cfg.GPUsPerNode}
	if err := place.Validate(); err != nil {
		return nil, err
	}
	sample := cfg.sampleTokens()
	key := routeKey{cluster: c.Cfg, gate: cfg.Gate, sample: sample, seed: seed}
	routeMu.Lock()
	cached := routeCache[key]
	routeMu.Unlock()
	if cached != nil {
		return cached, nil
	}
	parts, err := parallel.Map(c.NumRanks(), func(rank int) (*traffic, error) {
		return routeRank(c, cfg, place, rank, sample, seed), nil
	})
	if err != nil {
		return nil, err
	}
	tr := newTraffic(c)
	for _, part := range parts {
		tr.merge(part)
	}
	routeMu.Lock()
	if len(routeCache) >= routeCacheLimit {
		routeCache = map[routeKey]*traffic{}
	}
	routeCache[key] = tr
	routeMu.Unlock()
	return tr, nil
}

// byteMatrix scales the integer traffic counts into per-flow byte
// sizes: bytes = count × payload × (TokensPerGPU / sample). When
// flatten is set, each category's sizes collapse to the category mean
// over its non-zero entries.
type byteMatrix struct {
	ib, fwd, local []units.Bytes
}

func (tr *traffic) bytes(cfg Config, payload units.Bytes, flatten bool) byteMatrix {
	scale := payload * float64(cfg.TokensPerGPU) / float64(cfg.sampleTokens())
	conv := func(counts []int) []units.Bytes {
		out := make([]units.Bytes, len(counts))
		if flatten {
			sum, n := 0, 0
			for _, c := range counts {
				if c > 0 {
					sum += c
					n++
				}
			}
			if n == 0 {
				return out
			}
			mean := float64(sum) / float64(n) * scale
			for i, c := range counts {
				if c > 0 {
					out[i] = mean
				}
			}
			return out
		}
		for i, c := range counts {
			if c > 0 {
				out[i] = float64(c) * scale
			}
		}
		return out
	}
	return byteMatrix{ib: conv(tr.ibCount), fwd: conv(tr.fwdCount), local: conv(tr.localCount)}
}

// Dispatch simulates the EP dispatch kernel across the whole cluster.
func Dispatch(c *cluster.Cluster, cfg Config, seed int64) (Result, error) {
	tr, err := route(c, cfg, seed)
	if err != nil {
		return Result{}, err
	}
	bm := tr.bytes(cfg, cfg.DispatchBytes, cfg.DeterministicTraffic)
	return tr.measure(c, cfg, cfg.DispatchBytes, bm, tr.flows(c, cfg, bm, false)), nil
}

// Combine simulates the EP combine kernel: the exact mirror of
// dispatch (NVLink gather at the expert node, deduplicated IB return,
// BF16 payload).
func Combine(c *cluster.Cluster, cfg Config, seed int64) (Result, error) {
	tr, err := route(c, cfg, seed)
	if err != nil {
		return Result{}, err
	}
	bm := tr.bytes(cfg, cfg.CombineBytes, cfg.DeterministicTraffic)
	return tr.measure(c, cfg, cfg.CombineBytes, bm, tr.flows(c, cfg, bm, true)), nil
}

// flows materializes the byte matrix in deterministic index order.
// reverse=false is dispatch (token owner -> experts); reverse=true is
// combine (experts -> owner).
func (tr *traffic) flows(c *cluster.Cluster, cfg Config, bm byteMatrix, reverse bool) []netsim.Flow {
	var flows []netsim.Flow
	lat := cluster.DefaultLatencyParams()
	// add appends the flow from GPU (a,i) to GPU (b,j) through plane.
	add := func(a, i, b, j, plane int, bytes units.Bytes, rateCap units.BytesPerSecond) {
		paths := c.PlanePaths(a, i, b, j, plane)
		flows = append(flows, netsim.Flow{
			Src: c.GPUID(a, i), Dst: c.GPUID(b, j), Bytes: bytes, Paths: paths,
			StartupLatency: lat.HostOverheadIB + c.G.PathLatency(paths.Path(0)),
			RateCap:        rateCap,
		})
	}
	for rank := 0; rank < c.NumRanks(); rank++ {
		srcNode, srcGPU := c.RankOf(rank)
		for node := 0; node < tr.nodes; node++ {
			bytes := bm.ib[rank*tr.nodes+node]
			if bytes == 0 {
				continue
			}
			from, to := srcNode, node
			if reverse {
				from, to = node, srcNode
			}
			add(from, srcGPU, to, srcGPU, srcGPU, bytes, cfg.PerPeerRateCap)
		}
	}
	nvlink := func(sizes []units.Bytes) {
		for idx, bytes := range sizes {
			if bytes == 0 {
				continue
			}
			node := idx / (tr.gpus * tr.gpus)
			from := idx / tr.gpus % tr.gpus
			to := idx % tr.gpus
			if reverse {
				from, to = to, from
			}
			add(node, from, node, to, to, bytes, 0)
		}
	}
	nvlink(bm.fwd)
	nvlink(bm.local)
	return flows
}

func (tr *traffic) measure(c *cluster.Cluster, cfg Config, payload units.Bytes, bm byteMatrix, flows []netsim.Flow) Result {
	res := netsim.Simulate(c.G, flows)
	ranks := float64(c.NumRanks())
	var wire, nv units.Bytes
	for _, b := range bm.ib {
		wire += b
	}
	for _, b := range bm.fwd {
		nv += b
	}
	for _, b := range bm.local {
		nv += b
	}
	counted := float64(tr.countedTokens) * payload * float64(cfg.TokensPerGPU) / float64(cfg.sampleTokens())
	t := res.Makespan + cfg.LaunchOverhead
	out := Result{
		Time:               t,
		CountedBytesPerGPU: counted / ranks,
		WireBytesPerGPU:    wire / ranks,
		NVLinkBytesPerGPU:  nv / ranks,
		MeanNodes:          float64(tr.countedTokens) / float64(tr.tokens),
		MeanRemoteNodes:    float64(tr.remote) / float64(tr.tokens),
	}
	out.Bandwidth = out.CountedBytesPerGPU / t
	return out
}

// EPSweepPoint is one Figure 7 x-axis entry.
type EPSweepPoint struct {
	Ranks    int
	Dispatch Result
	Combine  Result
}

// Sweep runs dispatch and combine at each EP size (GPU count; must be a
// multiple of 8) on the shared MPFT fabric, fanning the EP points out
// over the parallel worker pool (each point's rank routing fans out a
// second level below it).
func Sweep(cfg Config, epSizes []int, seed int64) ([]EPSweepPoint, error) {
	return parallel.Map(len(epSizes), func(pi int) (EPSweepPoint, error) {
		ranks := epSizes[pi]
		if ranks%cluster.GPUsPerNode != 0 {
			return EPSweepPoint{}, fmt.Errorf("deepep: EP size %d not a multiple of %d", ranks, cluster.GPUsPerNode)
		}
		c, err := cluster.Cached(cluster.H800Config(ranks/cluster.GPUsPerNode, cluster.MPFT))
		if err != nil {
			return EPSweepPoint{}, err
		}
		d, err := Dispatch(c, cfg, seed)
		if err != nil {
			return EPSweepPoint{}, err
		}
		cb, err := Combine(c, cfg, seed+1)
		if err != nil {
			return EPSweepPoint{}, err
		}
		return EPSweepPoint{Ranks: ranks, Dispatch: d, Combine: cb}, nil
	})
}
