package collective

import (
	"math"
	"testing"

	"dsv3/internal/cluster"
	"dsv3/internal/netsim"
	"dsv3/internal/topology"
	"dsv3/internal/units"
)

func mustCluster(t *testing.T, nodes int, kind cluster.FabricKind) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Build(cluster.H800Config(nodes, kind))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAllToAllRejectsBadRanks(t *testing.T) {
	c := mustCluster(t, 2, cluster.MPFT)
	if _, err := AllToAll(c, 1, 1*units.MiB, DefaultOptions()); err == nil {
		t.Error("ranks=1 must be rejected")
	}
	if _, err := AllToAll(c, 17, 1*units.MiB, DefaultOptions()); err == nil {
		t.Error("ranks beyond cluster must be rejected")
	}
}

// Out-of-range failed planes and negative or non-finite buffers return an
// error instead of panicking: FailedPlanes == Planes() would leave no
// surviving plane and divide by zero in the detour's round-robin.
func TestAllToAllRejectsBadInput(t *testing.T) {
	c := mustCluster(t, 2, cluster.MPFT)
	cases := []struct {
		name   string
		failed int
		bytes  units.Bytes
	}{
		{"failed -1", -1, units.MiB},
		{"failed = planes", c.Planes(), units.MiB},
		{"failed > planes", c.Planes() + 1, units.MiB},
		{"bytes -1", 0, -1},
		{"bytes NaN", 0, units.Bytes(math.NaN())},
		{"bytes +Inf", 0, units.Bytes(math.Inf(1))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.FailedPlanes = tc.failed
			if _, err := AllToAll(c, 16, tc.bytes, opts); err == nil {
				t.Error("want an error")
			}
		})
	}
	if _, err := AllToAll(c, 16, 0, DefaultOptions()); err != nil {
		t.Errorf("a zero-byte all-to-all is valid: %v", err)
	}
}

func TestAllToAllIntraNodeIsNVLinkBound(t *testing.T) {
	c := mustCluster(t, 1, cluster.MPFT)
	opts := DefaultOptions()
	opts.PerFlowOverheadBytes = 0
	opts.LaunchOverhead = 0
	size := units.Bytes(8 * units.GiB)
	res, err := AllToAll(c, 8, size, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Each GPU sends 7/8 of its buffer over its NVLink at 160 GB/s.
	want := size * 7 / 8 / cluster.NVLinkEffective
	if math.Abs(res.Time-want) > 0.02*want {
		t.Errorf("intra-node a2a time = %v, want ~%v", res.Time, want)
	}
}

func TestAllToAllCrossNodeIsNICBound(t *testing.T) {
	c := mustCluster(t, 4, cluster.MPFT)
	opts := DefaultOptions()
	opts.PerFlowOverheadBytes = 0
	opts.LaunchOverhead = 0
	size := units.Bytes(4 * units.GiB)
	res, err := AllToAll(c, 32, size, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 24 of 31 peers are remote: the NIC carries 24/32 of the buffer.
	want := size * 24 / 32 / cluster.NICEffective
	if math.Abs(res.Time-want) > 0.05*want {
		t.Errorf("cross-node a2a time = %v, want ~%v", res.Time, want)
	}
	// Algorithm bandwidth therefore exceeds the NIC rate (Figure 5's
	// >50 GB/s values): algbw = size/time = NIC * 32/24.
	if res.AlgBW < cluster.NICEffective {
		t.Errorf("algbw %v should exceed NIC rate thanks to NVLink locality", res.AlgBW)
	}
}

func TestAllToAllBandwidthRisesWithSize(t *testing.T) {
	c := mustCluster(t, 4, cluster.MPFT)
	opts := DefaultOptions()
	small, err := AllToAll(c, 32, 128*units.MiB, opts)
	if err != nil {
		t.Fatal(err)
	}
	large, err := AllToAll(c, 32, 8*units.GiB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if small.AlgBW >= large.AlgBW {
		t.Errorf("algbw should rise with message size: %v vs %v", small.AlgBW, large.AlgBW)
	}
}

func TestAllToAllMPFTvsMRFTParity(t *testing.T) {
	// Figure 5/6's claim: with PXN, the two fabrics are within noise.
	// Our simulator reproduces parity structurally: under 1% apart.
	for _, size := range []units.Bytes{64, 1 * units.MiB, 1 * units.GiB} {
		a, err := AllToAll(mustCluster(t, 4, cluster.MPFT), 32, size, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := AllToAll(mustCluster(t, 4, cluster.MRFT), 32, size, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		diff := math.Abs(a.Time-b.Time) / b.Time
		if diff > 0.015 {
			t.Errorf("size %v: MPFT vs MRFT diff %.2f%% exceeds the paper's ±1.5%%", size, diff*100)
		}
	}
}

func TestAllToAllLatencyFloor(t *testing.T) {
	c := mustCluster(t, 2, cluster.MPFT)
	opts := DefaultOptions()
	res, err := AllToAll(c, 16, 64, opts) // 64 B total per rank
	if err != nil {
		t.Fatal(err)
	}
	if res.Time < opts.LaunchOverhead {
		t.Errorf("tiny message should be launch-bound: %v < %v", res.Time, opts.LaunchOverhead)
	}
	if res.Time > 3*opts.LaunchOverhead {
		t.Errorf("tiny message latency too high: %v", res.Time)
	}
}

func buildRoCEFabric(leaves, spines, perLeaf int) (*netsim.Router, []int) {
	ft := topology.FatTree2{
		Leaves: leaves, Spines: spines, EndpointsPerLeaf: perLeaf,
		Params: topology.FabricParams{
			EndpointLinkCap: 22 * units.GB, // 200GbE effective
			SwitchLinkCap:   22 * units.GB,
			EndpointLinkLat: 1.2 * units.Microsecond,
			SwitchHopLat:    1.0 * units.Microsecond,
		},
	}
	g := ft.Build()
	return netsim.NewRouter(g), g.Endpoints()
}

// spread groups: member i of group g is endpoint g + i*groupCount, so
// every ring edge crosses leaves — the congestion-prone DP/TP layout.
func makeGroups(eps []int, tp int) [][]int {
	count := len(eps) / tp
	groups := make([][]int, count)
	for gi := 0; gi < count; gi++ {
		for i := 0; i < tp; i++ {
			groups[gi] = append(groups[gi], eps[gi+i*count])
		}
	}
	return groups
}

func TestRingCollectivePolicies(t *testing.T) {
	router, eps := buildRoCEFabric(4, 4, 8)
	groups := makeGroups(eps, 8)
	opts := DefaultOptions()
	opts.PerFlowOverheadBytes = 0

	size := units.Bytes(256 * units.MiB)
	ecmp, err := NewScratch().RingCollective(router, groups, size, netsim.PolicyECMP, opts)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := NewScratch().RingCollective(router, groups, size, netsim.PolicyAdaptive, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 8's ordering: AR must clearly beat ECMP.
	if ar.MeanBusBW < 1.3*ecmp.MeanBusBW {
		t.Errorf("AR (%v) should clearly beat ECMP (%v)", ar.MeanBusBW, ecmp.MeanBusBW)
	}
}

func TestRingCollectiveStaticNearAR(t *testing.T) {
	router, eps := buildRoCEFabric(4, 4, 8)
	groups := makeGroups(eps, 8)
	opts := DefaultOptions()
	opts.PerFlowOverheadBytes = 0
	size := units.Bytes(256 * units.MiB)
	ar, _ := NewScratch().RingCollective(router, groups, size, netsim.PolicyAdaptive, opts)
	static, _ := NewScratch().RingCollective(router, groups, size, netsim.PolicyStatic, opts)
	if static.MeanBusBW < 0.5*ar.MeanBusBW {
		t.Errorf("static routing (%v) should be in AR's neighbourhood (%v)", static.MeanBusBW, ar.MeanBusBW)
	}
}

func TestRingCollectiveRejectsTinyGroup(t *testing.T) {
	router, eps := buildRoCEFabric(2, 2, 2)
	if _, err := NewScratch().RingCollective(router, [][]int{{eps[0]}}, 1*units.MiB, netsim.PolicyAdaptive, DefaultOptions()); err == nil {
		t.Error("1-member ring must be rejected")
	}
}

func TestRingBusBWScalesWithTP(t *testing.T) {
	// Larger TP rings aggregate more NICs: TP8's group bandwidth should
	// exceed TP2's under adaptive routing.
	router, eps := buildRoCEFabric(4, 4, 8)
	opts := DefaultOptions()
	opts.PerFlowOverheadBytes = 0
	size := units.Bytes(256 * units.MiB)
	bw8, _ := NewScratch().RingCollective(router, makeGroups(eps, 8), size, netsim.PolicyAdaptive, opts)
	bw2, _ := NewScratch().RingCollective(router, makeGroups(eps, 2), size, netsim.PolicyAdaptive, opts)
	if bw8.MeanBusBW <= bw2.MeanBusBW {
		t.Errorf("TP8 aggregate (%v) should exceed TP2 (%v)", bw8.MeanBusBW, bw2.MeanBusBW)
	}
}

func TestECMPWorseWithMoreConcurrency(t *testing.T) {
	// More concurrent groups => more hash collisions => lower mean bw.
	router, eps := buildRoCEFabric(4, 4, 8)
	opts := DefaultOptions()
	opts.PerFlowOverheadBytes = 0
	size := units.Bytes(256 * units.MiB)
	all := makeGroups(eps, 8)
	few, _ := NewScratch().RingCollective(router, all[:1], size, netsim.PolicyECMP, opts)
	many, _ := NewScratch().RingCollective(router, all, size, netsim.PolicyECMP, opts)
	if many.MeanBusBW > few.MeanBusBW*1.001 {
		t.Errorf("concurrency should not improve ECMP: %v vs %v", many.MeanBusBW, few.MeanBusBW)
	}
}
