package experiments

import (
	"dsv3/internal/cluster"
	"dsv3/internal/collective"
	"dsv3/internal/deepep"
	"dsv3/internal/netsim"
	"dsv3/internal/parallel"
	"dsv3/internal/results"
	"dsv3/internal/topology"
	"dsv3/internal/units"
)

// figure5 sweeps all-to-all algorithm bandwidth over GPU counts and
// message sizes on both fabrics. Every (gpus, size) cell is independent
// and runs on the parallel worker pool against the shared memoized
// clusters; each worker carries one collective.Scratch so the flow
// table and water-filling buffers are built once per worker, not per
// cell. Rows come back in grid order, identical to the serial sweep.
func figure5(gpuCounts []int, sizes []units.Bytes) (*results.Table, error) {
	opts := collective.DefaultOptions()
	rows, err := parallel.MapScratch(len(gpuCounts)*len(sizes), collective.NewScratch,
		func(idx int, sc *collective.Scratch) ([]results.Cell, error) {
			gpus := gpuCounts[idx/len(sizes)]
			size := sizes[idx%len(sizes)]
			mp, err := cluster.Cached(cluster.H800Config(gpus/cluster.GPUsPerNode, cluster.MPFT))
			if err != nil {
				return nil, err
			}
			mr, err := cluster.Cached(cluster.H800Config(gpus/cluster.GPUsPerNode, cluster.MRFT))
			if err != nil {
				return nil, err
			}
			a, err := sc.AllToAll(mp, gpus, size, opts)
			if err != nil {
				return nil, err
			}
			b, err := sc.AllToAll(mr, gpus, size, opts)
			if err != nil {
				return nil, err
			}
			diff := 0.0
			if b.AlgBW > 0 {
				diff = (a.AlgBW - b.AlgBW) / b.AlgBW * 100
			}
			return []results.Cell{results.Int(gpus), results.Val(units.FormatBytes(size), float64(size)),
				results.Float("%.1f", a.AlgBW/units.GB),
				results.Float("%.1f", b.AlgBW/units.GB),
				results.Float("%+.2f", diff)}, nil
		})
	if err != nil {
		return nil, err
	}
	t := results.NewTable("Figure 5: NCCL all-to-all algorithm bandwidth, MPFT vs MRFT (paper: near-identical, up to ~60 GB/s)",
		results.C("GPUs"), results.CU("Size", "B"), results.CU("MPFT GB/s", "GB/s"),
		results.CU("MRFT GB/s", "GB/s"), results.CU("diff%", "%"))
	t.Rows = rows
	return t, nil
}

// figure6 compares all-to-all latency across message sizes on 16 GPUs,
// one worker task per message size.
func figure6(sizes []units.Bytes) (*results.Table, error) {
	mp, err := cluster.Cached(cluster.H800Config(2, cluster.MPFT))
	if err != nil {
		return nil, err
	}
	mr, err := cluster.Cached(cluster.H800Config(2, cluster.MRFT))
	if err != nil {
		return nil, err
	}
	opts := collective.DefaultOptions()
	rows, err := parallel.MapScratch(len(sizes), collective.NewScratch, func(si int, sc *collective.Scratch) ([]results.Cell, error) {
		size := sizes[si]
		a, err := sc.AllToAll(mp, 16, size, opts)
		if err != nil {
			return nil, err
		}
		b, err := sc.AllToAll(mr, 16, size, opts)
		if err != nil {
			return nil, err
		}
		return []results.Cell{results.Val(units.FormatBytes(size), float64(size)),
			results.Val(units.FormatSeconds(a.Time), float64(a.Time)),
			results.Val(units.FormatSeconds(b.Time), float64(b.Time)),
			results.Float("%+.2f", (a.Time-b.Time)/b.Time*100)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := results.NewTable("Figure 6: all-to-all latency on 16 GPUs, MPFT vs MRFT (paper: within ±1.5%)",
		results.CU("Size", "B"), results.CU("MPFT", "s"), results.CU("MRFT", "s"), results.CU("diff%", "%"))
	t.Rows = rows
	return t, nil
}

// figure7 runs the DeepEP dispatch/combine sweep at the paper's EP
// sizes using the production batch (4096 tokens/GPU), with the paper's
// measured values beside the simulated ones.
func figure7(seed int64) (*results.Table, error) {
	cfg := deepep.V3Config()
	cfg.DeterministicTraffic = true
	cfg.SampleTokens = 512
	points, err := deepep.Sweep(cfg, []int{16, 32, 64, 128}, seed)
	if err != nil {
		return nil, err
	}
	paper := map[int][2]float64{ // GB/s: dispatch, combine
		16:  {42.47, 43.05},
		32:  {58.02, 56.96},
		64:  {50.58, 48.54},
		128: {45.34, 41.60},
	}
	t := results.NewTable("Figure 7: DeepEP dispatch/combine bandwidth on MPFT (4096 tokens/GPU)",
		results.C("EP"), results.CU("dispatch GB/s", "GB/s"), results.CU("paper", "GB/s"),
		results.CU("combine GB/s", "GB/s"), results.CU("paper", "GB/s"))
	for _, p := range points {
		t.Row(results.Int(p.Ranks),
			results.Float("%.2f", p.Dispatch.Bandwidth/units.GB), results.Float("%.2f", paper[p.Ranks][0]),
			results.Float("%.2f", p.Combine.Bandwidth/units.GB), results.Float("%.2f", paper[p.Ranks][1]))
	}
	return t, nil
}

// figure8 measures ring AllGather/ReduceScatter aggregate bandwidth
// under ECMP, adaptive routing, and static routing on a RoCE leaf-spine
// fabric with concurrent groups (the mechanism behind §5.2.2).
func figure8() (*results.Table, error) {
	opts := collective.DefaultOptions()
	opts.PerFlowOverheadBytes = 0
	tps := []int{8, 4, 2}
	policies := []netsim.Policy{netsim.PolicyECMP, netsim.PolicyAdaptive, netsim.PolicyStatic}
	// One worker task per (TP, policy) bar. Each task builds its own
	// RoCE fabric and router: the netsim Router caches shortest paths
	// mutably, so sharing one across tasks would race. The collective
	// scratch, by contrast, is fully reset per call, so it rides along
	// per worker.
	rows, err := parallel.MapScratch(len(tps)*len(policies), collective.NewScratch, func(idx int, sc *collective.Scratch) ([]results.Cell, error) {
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
			return nil, err
		}
		return []results.Cell{results.Int(tp), results.Str(pol.String()), results.Float("%.1f", res.MeanBusBW/units.GB)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := results.NewTable("Figure 8: RoCE ring AG/RS aggregate bandwidth by routing policy (paper: AR ≈ Static >> ECMP)",
		results.C("TP"), results.C("Policy"), results.CU("GB/s", "GB/s"))
	t.Rows = rows
	return t, nil
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

// planeFailure reruns figure5's 32-GPU, 1 GiB/rank all-to-all with k
// planes failed (collective.Options.FailedPlanes): traffic destined for
// a failed plane detours over a surviving plane, with NVLink at both
// ends. The 0-failure row is collective.AllToAll under DefaultOptions,
// so the Time column reads on the Figure 5/6 scale. Degradation should
// be graceful — roughly 8/(8-k) — rather than a connectivity loss.
func planeFailure(failedCounts []int) (*results.Table, error) {
	c, err := cluster.Cached(cluster.H800Config(4, cluster.MPFT))
	if err != nil {
		return nil, err
	}
	times, err := parallel.MapScratch(len(failedCounts), collective.NewScratch, func(i int, sc *collective.Scratch) (units.Seconds, error) {
		opts := collective.DefaultOptions()
		opts.FailedPlanes = failedCounts[i]
		res, err := sc.AllToAll(c, 32, units.Bytes(1*units.GiB), opts)
		return res.Time, err
	})
	if err != nil {
		return nil, err
	}
	t := results.NewTable("§5.1.1: multi-plane robustness — all-to-all under plane failures (32 GPUs, 1 GiB/rank)",
		results.C("Failed planes"), results.CU("Time", "s"), results.C("Slowdown"))
	// Slowdowns are derived serially against the latest failed==0
	// entry seen so far.
	var baseline units.Seconds
	for i, failed := range failedCounts {
		if failed == 0 {
			baseline = times[i]
		}
		slowdown := 0.0
		if baseline > 0 {
			slowdown = times[i] / baseline
		}
		t.Row(results.Int(failed), results.Val(units.FormatSeconds(times[i]), float64(times[i])),
			results.Float("%.2fx", slowdown))
	}
	return t, nil
}
