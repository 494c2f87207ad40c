package experiments

import (
	"fmt"

	"dsv3/internal/cluster"
	"dsv3/internal/collective"
	"dsv3/internal/deepep"
	"dsv3/internal/netsim"
	"dsv3/internal/parallel"
	"dsv3/internal/results"
	"dsv3/internal/topology"
	"dsv3/internal/units"
)

// Figure5Point is one (gpus, size) cell of the NCCL all-to-all sweep.
type Figure5Point struct {
	GPUs      int
	Size      units.Bytes
	MPFTAlgBW units.BytesPerSecond
	MRFTAlgBW units.BytesPerSecond
}

// Figure5 sweeps all-to-all algorithm bandwidth over GPU counts and
// message sizes on both fabrics. Every (gpus, size) cell is independent
// and runs on the parallel worker pool against the shared memoized
// clusters; each worker carries one collective.Scratch so the flow
// table and water-filling buffers are built once per worker, not per
// cell. Results come back in grid order, identical to the serial sweep.
func Figure5(gpuCounts []int, sizes []units.Bytes) ([]Figure5Point, error) {
	opts := collective.DefaultOptions()
	return parallel.MapScratch(len(gpuCounts)*len(sizes), collective.NewScratch,
		func(idx int, sc *collective.Scratch) (Figure5Point, error) {
			gpus := gpuCounts[idx/len(sizes)]
			size := sizes[idx%len(sizes)]
			mp, err := cluster.Cached(cluster.H800Config(gpus/cluster.GPUsPerNode, cluster.MPFT))
			if err != nil {
				return Figure5Point{}, err
			}
			mr, err := cluster.Cached(cluster.H800Config(gpus/cluster.GPUsPerNode, cluster.MRFT))
			if err != nil {
				return Figure5Point{}, err
			}
			a, err := sc.AllToAll(mp, gpus, size, opts)
			if err != nil {
				return Figure5Point{}, err
			}
			b, err := sc.AllToAll(mr, gpus, size, opts)
			if err != nil {
				return Figure5Point{}, err
			}
			return Figure5Point{GPUs: gpus, Size: size, MPFTAlgBW: a.AlgBW, MRFTAlgBW: b.AlgBW}, nil
		})
}

// DefaultFigure5Sizes returns a representative subset of the paper's
// 128 MiB - 16 GiB x-axis.
func DefaultFigure5Sizes() []units.Bytes {
	return []units.Bytes{128 * units.MiB, 512 * units.MiB, 2 * units.GiB, 8 * units.GiB, 16 * units.GiB}
}

// Figure5Result returns the sweep as a structured table.
func Figure5Result(points []Figure5Point) *results.Table {
	t := results.NewTable("Figure 5: NCCL all-to-all algorithm bandwidth, MPFT vs MRFT (paper: near-identical, up to ~60 GB/s)",
		results.C("GPUs"), results.CU("Size", "B"), results.CU("MPFT GB/s", "GB/s"),
		results.CU("MRFT GB/s", "GB/s"), results.CU("diff%", "%"))
	for _, p := range points {
		diff := 0.0
		if p.MRFTAlgBW > 0 {
			diff = (p.MPFTAlgBW - p.MRFTAlgBW) / p.MRFTAlgBW * 100
		}
		t.Row(results.Int(p.GPUs), results.Val(units.FormatBytes(p.Size), float64(p.Size)),
			results.Float("%.1f", p.MPFTAlgBW/units.GB),
			results.Float("%.1f", p.MRFTAlgBW/units.GB),
			results.Float("%+.2f", diff))
	}
	return t
}

// Figure6Point is one message size of the 16-GPU latency comparison.
type Figure6Point struct {
	Size        units.Bytes
	MPFTLatency units.Seconds
	MRFTLatency units.Seconds
	DiffPercent float64
}

// Figure6 compares all-to-all latency across message sizes on 16 GPUs,
// one worker task per message size.
func Figure6(sizes []units.Bytes) ([]Figure6Point, error) {
	mp, err := cluster.Cached(cluster.H800Config(2, cluster.MPFT))
	if err != nil {
		return nil, err
	}
	mr, err := cluster.Cached(cluster.H800Config(2, cluster.MRFT))
	if err != nil {
		return nil, err
	}
	opts := collective.DefaultOptions()
	return parallel.MapScratch(len(sizes), collective.NewScratch, func(si int, sc *collective.Scratch) (Figure6Point, error) {
		size := sizes[si]
		a, err := sc.AllToAll(mp, 16, size, opts)
		if err != nil {
			return Figure6Point{}, err
		}
		b, err := sc.AllToAll(mr, 16, size, opts)
		if err != nil {
			return Figure6Point{}, err
		}
		return Figure6Point{
			Size:        size,
			MPFTLatency: a.Time,
			MRFTLatency: b.Time,
			DiffPercent: (a.Time - b.Time) / b.Time * 100,
		}, nil
	})
}

// DefaultFigure6Sizes spans the paper's 64 B - 16 GiB log axis.
func DefaultFigure6Sizes() []units.Bytes {
	return []units.Bytes{64, 4 * units.KiB, 256 * units.KiB, 16 * units.MiB, 1 * units.GiB, 16 * units.GiB}
}

// Figure6Result returns the latency comparison as a structured table.
func Figure6Result(points []Figure6Point) *results.Table {
	t := results.NewTable("Figure 6: all-to-all latency on 16 GPUs, MPFT vs MRFT (paper: within ±1.5%)",
		results.CU("Size", "B"), results.CU("MPFT", "s"), results.CU("MRFT", "s"), results.CU("diff%", "%"))
	for _, p := range points {
		t.Row(results.Val(units.FormatBytes(p.Size), float64(p.Size)),
			results.Val(units.FormatSeconds(p.MPFTLatency), float64(p.MPFTLatency)),
			results.Val(units.FormatSeconds(p.MRFTLatency), float64(p.MRFTLatency)),
			results.Float("%+.2f", p.DiffPercent))
	}
	return t
}

// Figure7Paper holds the paper's measured DeepEP values (GB/s).
var Figure7Paper = map[int][2]float64{
	16:  {42.47, 43.05},
	32:  {58.02, 56.96},
	64:  {50.58, 48.54},
	128: {45.34, 41.60},
}

// Figure7 runs the DeepEP dispatch/combine sweep at the paper's EP
// sizes using the production batch (4096 tokens/GPU).
func Figure7() ([]deepep.EPSweepPoint, error) {
	cfg := deepep.V3Config()
	cfg.DeterministicTraffic = true
	cfg.SampleTokens = 512
	return deepep.Sweep(cfg, []int{16, 32, 64, 128}, 7)
}

// Figure7Result returns the sweep as a structured table with the
// paper's values beside the measured ones.
func Figure7Result(points []deepep.EPSweepPoint) *results.Table {
	t := results.NewTable("Figure 7: DeepEP dispatch/combine bandwidth on MPFT (4096 tokens/GPU)",
		results.C("EP"), results.CU("dispatch GB/s", "GB/s"), results.CU("paper", "GB/s"),
		results.CU("combine GB/s", "GB/s"), results.CU("paper", "GB/s"))
	for _, p := range points {
		paper := Figure7Paper[p.Ranks]
		t.Row(results.Int(p.Ranks),
			results.Float("%.2f", p.Dispatch.Bandwidth/units.GB), results.Float("%.2f", paper[0]),
			results.Float("%.2f", p.Combine.Bandwidth/units.GB), results.Float("%.2f", paper[1]))
	}
	return t
}

// Figure8Point is one (TP, policy) bar.
type Figure8Point struct {
	TP     int
	Policy netsim.Policy
	BusBW  units.BytesPerSecond
}

// Figure8 measures ring AllGather/ReduceScatter aggregate bandwidth
// under ECMP, adaptive routing, and static routing on a RoCE leaf-spine
// fabric with concurrent groups (the mechanism behind §5.2.2).
func Figure8() ([]Figure8Point, error) {
	opts := collective.DefaultOptions()
	opts.PerFlowOverheadBytes = 0
	tps := []int{8, 4, 2}
	policies := []netsim.Policy{netsim.PolicyECMP, netsim.PolicyAdaptive, netsim.PolicyStatic}
	// One worker task per (TP, policy) bar. Each task builds its own
	// RoCE fabric and router: the netsim Router caches shortest paths
	// mutably, so sharing one across tasks would race. The collective
	// scratch, by contrast, is fully reset per call, so it rides along
	// per worker.
	points, err := parallel.MapScratch(len(tps)*len(policies), collective.NewScratch, func(idx int, sc *collective.Scratch) (Figure8Point, error) {
		tp := tps[idx/len(policies)]
		pol := policies[idx%len(policies)]
		ft := topology.FatTree2{
			Leaves: 4, Spines: 4, EndpointsPerLeaf: 8,
			Params: topology.FabricParams{
				EndpointLinkCap: 22 * units.GB, // 200GbE effective
				SwitchLinkCap:   22 * units.GB,
				EndpointLinkLat: 1.2 * units.Microsecond,
				SwitchHopLat:    1.0 * units.Microsecond,
			},
		}
		router := netsim.NewRouter(ft.Build())
		groups := spreadGroups(router.Graph().Endpoints(), tp)
		res, err := sc.RingCollective(router, groups, units.Bytes(256*units.MiB), pol, opts)
		if err != nil {
			return Figure8Point{}, err
		}
		return Figure8Point{TP: tp, Policy: pol, BusBW: res.MeanBusBW}, nil
	})
	return points, err
}

// spreadGroups builds TP groups whose members sit under different
// leaves (member i of group g is endpoint g + i*groupCount).
func spreadGroups(eps []int, tp int) [][]int {
	count := len(eps) / tp
	groups := make([][]int, count)
	for gi := 0; gi < count; gi++ {
		for i := 0; i < tp; i++ {
			groups[gi] = append(groups[gi], eps[gi+i*count])
		}
	}
	return groups
}

// Figure8Result returns the routing-policy comparison as a structured
// table.
func Figure8Result(points []Figure8Point) *results.Table {
	t := results.NewTable("Figure 8: RoCE ring AG/RS aggregate bandwidth by routing policy (paper: AR ≈ Static >> ECMP)",
		results.C("TP"), results.C("Policy"), results.CU("GB/s", "GB/s"))
	for _, p := range points {
		t.Row(results.Int(p.TP), results.Str(p.Policy.String()), results.Float("%.1f", p.BusBW/units.GB))
	}
	return t
}

// PlaneFailureRow is one plane-failure scenario (§5.1.1 robustness).
type PlaneFailureRow struct {
	FailedPlanes int
	Time         units.Seconds
	Slowdown     float64
}

// PlaneFailure reruns a 32-GPU all-to-all with k planes failed: traffic
// destined for a failed plane detours over a surviving plane (NVLink at
// both ends). Degradation should be graceful — roughly 8/(8-k) — rather
// than a connectivity loss.
func PlaneFailure(failedCounts []int) ([]PlaneFailureRow, error) {
	c, err := cluster.Cached(cluster.H800Config(4, cluster.MPFT))
	if err != nil {
		return nil, err
	}
	opts := collective.DefaultOptions()
	size := units.Bytes(1 * units.GiB)
	times, err := parallel.MapScratch(len(failedCounts), collective.NewScratch, func(i int, sc *collective.Scratch) (units.Seconds, error) {
		return allToAllWithFailedPlanes(sc, c, 32, size, failedCounts[i], opts)
	})
	if err != nil {
		return nil, err
	}
	// Slowdowns are derived serially so the baseline semantics (latest
	// failed==0 entry seen so far) match the original sweep exactly.
	rows := make([]PlaneFailureRow, 0, len(failedCounts))
	var baseline units.Seconds
	for i, failed := range failedCounts {
		if failed == 0 {
			baseline = times[i]
		}
		row := PlaneFailureRow{FailedPlanes: failed, Time: times[i]}
		if baseline > 0 {
			row.Slowdown = times[i] / baseline
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// allToAllWithFailedPlanes mirrors collective.AllToAll but reroutes
// traffic whose home plane failed onto surviving planes round-robin.
// It builds its own (detoured) flow set but borrows the worker's
// simulator context for the water-filling scratch.
func allToAllWithFailedPlanes(sc *collective.Scratch, c *cluster.Cluster, ranks int, perRank units.Bytes, failed int, opts collective.Options) (units.Seconds, error) {
	alive := make([]int, 0, c.Planes()-failed)
	for p := failed; p < c.Planes(); p++ {
		alive = append(alive, p)
	}
	if len(alive) == 0 {
		return 0, fmt.Errorf("experiments: all planes failed")
	}
	chunk := perRank / float64(ranks)
	var flows []netsim.Flow
	for r := 0; r < ranks; r++ {
		srcNode, srcGPU := c.RankOf(r)
		for q := 0; q < ranks; q++ {
			if q == r {
				continue
			}
			dstNode, dstGPU := c.RankOf(q)
			plane := dstGPU
			if plane < failed { // home plane down: detour
				plane = alive[(r+q)%len(alive)]
			}
			paths := c.PXNPathsVia(srcNode, srcGPU, dstNode, dstGPU, plane)
			flows = append(flows, netsim.Flow{
				Src:            c.GPUID(srcNode, srcGPU),
				Dst:            c.GPUID(dstNode, dstGPU),
				Bytes:          chunk,
				Paths:          paths,
				StartupLatency: opts.HostLatency + c.G.PathLatency(paths[0]),
			})
		}
	}
	res := sc.Sim().Simulate(c.G, flows)
	return res.Makespan + opts.LaunchOverhead, nil
}

// PlaneFailureResult returns the robustness table in structured form.
func PlaneFailureResult(rows []PlaneFailureRow) *results.Table {
	t := results.NewTable("§5.1.1: multi-plane robustness — all-to-all under plane failures (32 GPUs, 1 GiB/rank)",
		results.C("Failed planes"), results.CU("Time", "s"), results.C("Slowdown"))
	for _, r := range rows {
		t.Row(results.Int(r.FailedPlanes), results.Val(units.FormatSeconds(r.Time), float64(r.Time)),
			results.Float("%.2fx", r.Slowdown))
	}
	return t
}
