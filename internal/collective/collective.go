// Package collective implements the communication patterns the paper
// measures: NCCL-style all-to-all with PXN rail alignment (Figures 5
// and 6), and ring AllGather/ReduceScatter under different routing
// policies (Figure 8). The collectives construct explicit flow sets and
// hand them to the netsim fluid simulator.
package collective

import (
	"fmt"
	"math"

	"dsv3/internal/cluster"
	"dsv3/internal/netsim"
	"dsv3/internal/topology"
	"dsv3/internal/units"
)

// Options tunes the protocol model shared by the collectives.
type Options struct {
	// LaunchOverhead is the per-collective software cost (kernel launch,
	// NCCL group handling). Dominates tiny-message latency (Figure 6's
	// flat region).
	LaunchOverhead units.Seconds
	// PerFlowOverheadBytes is a per-connection byte tax modelling
	// protocol/pipelining inefficiency at mid-sized per-peer messages;
	// it produces NCCL's characteristic rising bandwidth curve
	// (Figure 5). The tax is capped at the chunk size itself so tiny
	// (latency-protocol) messages are not penalized.
	PerFlowOverheadBytes units.Bytes
	// HostLatency is the per-flow endpoint software latency added on top
	// of path propagation.
	HostLatency units.Seconds
	// Multipath sprays each flow across all equal-cost paths (IB
	// adaptive routing). When false, each flow is pinned to one path
	// chosen by FlowSeed hashing.
	Multipath bool
	// FlowSeed perturbs single-path (ECMP-like) choices.
	FlowSeed uint64
	// FailedPlanes takes NIC planes 0..FailedPlanes-1 down for
	// AllToAll. A flow whose home plane (the destination GPU's) is down
	// detours round-robin over the surviving planes, with NVLink at
	// both ends (§5.1.1, Figure 4).
	FailedPlanes int
}

// DefaultOptions matches the calibration used by the Figure 5/6
// experiments (see DESIGN.md).
func DefaultOptions() Options {
	return Options{
		LaunchOverhead:       80 * units.Microsecond,
		PerFlowOverheadBytes: 2 * units.MiB,
		HostLatency:          0.85 * units.Microsecond,
		Multipath:            true,
	}
}

// AllToAllResult reports one all-to-all execution.
type AllToAllResult struct {
	// Time is the wall-clock completion time including launch overhead.
	Time units.Seconds
	// AlgBW is NCCL's "algorithm bandwidth": per-rank buffer / time.
	AlgBW units.BytesPerSecond
	// MaxLinkBytes exposes the fabric hotspot for isolation studies.
	MaxLinkBytes units.Bytes
}

// Scratch is a reusable collective-execution context: it owns the flow
// table handed to the simulator and a netsim.Sim with the water-filling
// scratch, so sweeping many collectives (the Figure 5 grid, the plane-
// failure rounds) reuses one set of buffers instead of rebuilding the
// flow graph per round. A Scratch is not safe for concurrent use;
// sweeps thread one per worker via parallel.MapScratch. Results are
// byte-identical to the package-level functions.
type Scratch struct {
	sim       netsim.Sim
	flows     []netsim.Flow
	flowGroup []int
	stage     []units.Seconds
}

// NewScratch returns an empty context whose buffers grow to the largest
// collective it executes.
func NewScratch() *Scratch { return &Scratch{} }

// AllToAll runs an NCCL-style all-to-all over the first `ranks` GPUs of
// the cluster. Each rank holds a buffer of perRankBytes, sending
// perRankBytes/ranks to every peer (itself included — the self chunk is
// a local copy). Cross-node transfers use sender-side PXN: NVLink to
// the rail-aligned local GPU, then the destination GPU's plane, or a
// surviving plane when that one is among opts.FailedPlanes.
func AllToAll(c *cluster.Cluster, ranks int, perRankBytes units.Bytes, opts Options) (AllToAllResult, error) {
	return NewScratch().AllToAll(c, ranks, perRankBytes, opts)
}

// AllToAll is the scratch-reusing form of the package-level AllToAll.
func (s *Scratch) AllToAll(c *cluster.Cluster, ranks int, perRankBytes units.Bytes, opts Options) (AllToAllResult, error) {
	if ranks < 2 || ranks > c.NumRanks() {
		return AllToAllResult{}, fmt.Errorf("collective: ranks=%d out of range (cluster has %d)", ranks, c.NumRanks())
	}
	failed, planes := opts.FailedPlanes, c.Planes()
	if failed < 0 || failed >= planes {
		return AllToAllResult{}, fmt.Errorf("collective: %d failed planes out of range [0, %d)", failed, planes)
	}
	if perRankBytes < 0 || math.IsNaN(perRankBytes) || math.IsInf(perRankBytes, 0) {
		return AllToAllResult{}, fmt.Errorf("collective: per-rank bytes %v must be finite and non-negative", perRankBytes)
	}
	chunk := perRankBytes / float64(ranks)
	if need := ranks * (ranks - 1); cap(s.flows) < need {
		s.flows = make([]netsim.Flow, 0, need)
	}
	flows := s.flows[:0]
	for r := 0; r < ranks; r++ {
		srcNode, srcGPU := c.RankOf(r)
		for q := 0; q < ranks; q++ {
			if q == r {
				continue // local copy, no fabric time
			}
			dstNode, dstGPU := c.RankOf(q)
			plane := dstGPU
			if plane < failed { // home plane down: detour
				plane = failed + (r+q)%(planes-failed)
			}
			paths := selectPaths(c.PlanePaths(srcNode, srcGPU, dstNode, dstGPU, plane), opts, uint64(r)<<20|uint64(q))
			flows = append(flows, netsim.Flow{
				Src:            c.GPUID(srcNode, srcGPU),
				Dst:            c.GPUID(dstNode, dstGPU),
				Bytes:          chunk + wireTax(chunk, opts),
				Paths:          paths,
				StartupLatency: opts.HostLatency + c.G.PathLatency(paths.Path(0)),
			})
		}
	}
	s.flows = flows[:0]
	res := s.sim.Simulate(c.G, flows)
	t := res.Makespan + opts.LaunchOverhead
	return AllToAllResult{
		Time:         t,
		AlgBW:        perRankBytes / t,
		MaxLinkBytes: res.MaxLinkBytes,
	}, nil
}

// wireTax returns the protocol-overhead bytes for one flow, capped at
// the chunk size (tiny messages ride the latency protocol untaxed).
func wireTax(chunk units.Bytes, opts Options) units.Bytes {
	if chunk < opts.PerFlowOverheadBytes {
		return chunk
	}
	return opts.PerFlowOverheadBytes
}

// selectPaths applies the multipath option: either all equal-cost paths
// (adaptive routing) or a deterministic hash pick, a sub-slice of the
// shared set.
func selectPaths(paths topology.PathSet, opts Options, key uint64) topology.PathSet {
	if opts.Multipath || paths.Len() <= 1 {
		return paths
	}
	return paths.Only(int(netsim.Splitmix64(key^opts.FlowSeed) % uint64(paths.Len())))
}

// RingResult reports a concurrent ring-collective execution.
type RingResult struct {
	// GroupTime[g] is group g's completion time for all N-1 stages.
	GroupTime []units.Seconds
	// GroupBusBW[g] is the aggregate bus bandwidth of group g: total
	// bytes moved by the group divided by its time.
	GroupBusBW []units.BytesPerSecond
	// MeanBusBW averages GroupBusBW.
	MeanBusBW units.BytesPerSecond
}

// RingCollective runs ring AllGather/ReduceScatter (they are wire-time
// twins: N-1 stages of neighbour chunk exchange) for several concurrent
// groups over an arbitrary fabric. groups lists the member endpoint
// node IDs of each ring; perRankBytes is each rank's full buffer, moved
// in chunks of perRankBytes/N per stage.
//
// The routing policy is applied per ring edge (NCCL opens one QP per
// neighbour connection, hashed once): ECMP keeps whatever the hash
// picked for all stages, which is exactly how DP traffic "lacks
// randomness" and congests (§5.2.2).
func (s *Scratch) RingCollective(router *netsim.Router, groups [][]int, perRankBytes units.Bytes, policy netsim.Policy, opts Options) (RingResult, error) {
	g := router.Graph()
	flows := s.flows[:0]
	flowGroup := s.flowGroup[:0]
	for gi, members := range groups {
		n := len(members)
		if n < 2 {
			return RingResult{}, fmt.Errorf("collective: ring group %d needs >= 2 members", gi)
		}
		chunk := perRankBytes / float64(n)
		for i, src := range members {
			dst := members[(i+1)%n]
			// ECMP hashes the connection 5-tuple; static routing uses a
			// per-destination route table (spread by destination, the
			// way an operator would configure it).
			key := netsim.Splitmix64(uint64(gi)<<32 | uint64(i)<<16 | opts.FlowSeed)
			if policy == netsim.PolicyStatic {
				key = uint64(dst)
			}
			paths, err := router.Select(src, dst, policy, key)
			if err != nil {
				return RingResult{}, err
			}
			flows = append(flows, netsim.Flow{
				Src:            src,
				Dst:            dst,
				Bytes:          chunk + wireTax(chunk, opts),
				Paths:          paths,
				StartupLatency: opts.HostLatency + g.PathLatency(paths.Path(0)),
			})
			flowGroup = append(flowGroup, gi)
		}
	}
	// One stage simulated with every group's edges active; a group's
	// stage time is its slowest edge. All N-1 stages repeat the same
	// contention pattern (QPs are pinned), so the total is (N-1)×stage.
	s.flows, s.flowGroup = flows[:0], flowGroup[:0]
	res := s.sim.Simulate(g, flows)
	out := RingResult{
		GroupTime:  make([]units.Seconds, len(groups)),
		GroupBusBW: make([]units.BytesPerSecond, len(groups)),
	}
	if cap(s.stage) < len(groups) {
		s.stage = make([]units.Seconds, len(groups))
	}
	stage := s.stage[:len(groups)]
	clear(stage)
	for fi, t := range res.FlowFinish {
		gi := flowGroup[fi]
		if t > stage[gi] {
			stage[gi] = t
		}
	}
	var sum float64
	for gi, members := range groups {
		n := float64(len(members))
		out.GroupTime[gi] = stage[gi]*(n-1) + opts.LaunchOverhead
		// Aggregate bus bandwidth: every rank moves one chunk per stage
		// for n-1 stages; total group bytes = n·(n-1)·chunk.
		out.GroupBusBW[gi] = n * (n - 1) * (perRankBytes / n) / out.GroupTime[gi]
		sum += out.GroupBusBW[gi]
	}
	out.MeanBusBW = sum / float64(len(groups))
	return out, nil
}
