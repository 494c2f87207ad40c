package cluster

import (
	"fmt"
	"math"
	"testing"

	"dsv3/internal/netsim"
	"dsv3/internal/topology"
	"dsv3/internal/units"
)

func TestBuildValidates(t *testing.T) {
	for _, kind := range []FabricKind{MPFT, MRFT} {
		c, err := Build(H800Config(4, kind))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.G.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if c.NumRanks() != 32 {
			t.Errorf("ranks = %d, want 32", c.NumRanks())
		}
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Error("zero config must be rejected")
	}
}

func TestRankMapping(t *testing.T) {
	c, _ := Build(H800Config(2, MPFT))
	n, g := c.RankOf(0)
	if n != 0 || g != 0 {
		t.Error("rank 0 should be (0,0)")
	}
	n, g = c.RankOf(9)
	if n != 1 || g != 1 {
		t.Errorf("rank 9 -> (%d,%d), want (1,1)", n, g)
	}
}

func TestNVLinkPath(t *testing.T) {
	c, _ := Build(H800Config(1, MPFT))
	set := c.PlanePaths(0, 0, 0, 3, 5)
	if set.Len() != 1 || set.Hops != 2 {
		t.Fatalf("NVLink set should be one 2-link path, got %d of %d", set.Len(), set.Hops)
	}
	p := set.Path(0)
	if self := c.PlanePaths(0, 2, 0, 2, 2); self.Hops != 0 || self.Links != nil {
		t.Error("self NVLink path should be empty")
	}
	// Path endpoints: GPU0 -> NVSwitch -> GPU3.
	g := c.G
	if g.Links[p[0]].From != c.GPUID(0, 0) || g.Links[p[1]].To != c.GPUID(0, 3) {
		t.Error("NVLink path endpoints wrong")
	}
}

// split returns a path set's paths, one slice each.
func split(set topology.PathSet) [][]int32 {
	paths := make([][]int32, set.Len())
	for k := range paths {
		paths[k] = set.Path(k)
	}
	return paths
}

func pathEnds(t *testing.T, c *Cluster, path []int32, wantFrom, wantTo int) {
	t.Helper()
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	if c.G.Links[path[0]].From != wantFrom {
		t.Errorf("path starts at %d, want %d", c.G.Links[path[0]].From, wantFrom)
	}
	if c.G.Links[path[len(path)-1]].To != wantTo {
		t.Errorf("path ends at %d, want %d", c.G.Links[path[len(path)-1]].To, wantTo)
	}
	// Contiguity.
	for k := 1; k < len(path); k++ {
		if c.G.Links[path[k]].From != c.G.Links[path[k-1]].To {
			t.Fatalf("path not contiguous at hop %d", k)
		}
	}
}

func TestPXNPathsSameNode(t *testing.T) {
	c, _ := Build(H800Config(2, MPFT))
	paths := split(c.PlanePaths(0, 1, 0, 5, 5))
	if len(paths) != 1 {
		t.Fatalf("same-node should have 1 path, got %d", len(paths))
	}
	pathEnds(t, c, paths[0], c.GPUID(0, 1), c.GPUID(0, 5))
}

func TestPXNPathsSameLeafCrossNode(t *testing.T) {
	// Nodes 0 and 1 share a leaf (NICsPerLeaf=4).
	c, _ := Build(H800Config(2, MPFT))
	paths := split(c.PlanePaths(0, 2, 1, 6, 6))
	if len(paths) != 1 {
		t.Fatalf("same-leaf pair should have 1 path, got %d", len(paths))
	}
	pathEnds(t, c, paths[0], c.GPUID(0, 2), c.GPUID(1, 6))
	// The PXN path must traverse plane 6 (the destination GPU's plane):
	// check it passes through NIC (0,6).
	sawNIC := false
	for _, lid := range paths[0] {
		if c.G.Links[lid].From == nodeID(c, "nic-0-6") || c.G.Links[lid].To == nodeID(c, "nic-0-6") {
			sawNIC = true
		}
	}
	if !sawNIC {
		t.Error("PXN path should use the destination-plane NIC on the source host")
	}
}

func TestPXNPathsCrossLeafFanOut(t *testing.T) {
	cfg := H800Config(8, MPFT) // leaves of 4 nodes: nodes 0..3 and 4..7
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := split(c.PlanePaths(0, 0, 5, 0, 0))
	if len(paths) != cfg.SpinesPerPlane {
		t.Fatalf("cross-leaf paths = %d, want %d (one per spine)", len(paths), cfg.SpinesPerPlane)
	}
	for _, p := range paths {
		pathEnds(t, c, p, c.GPUID(0, 0), c.GPUID(5, 0))
	}
}

func TestForwardPathsReceiverSide(t *testing.T) {
	c, _ := Build(H800Config(2, MPFT))
	paths := split(c.PlanePaths(0, 3, 1, 7, 3))
	if len(paths) != 1 {
		t.Fatalf("same-leaf: 1 path, got %d", len(paths))
	}
	pathEnds(t, c, paths[0], c.GPUID(0, 3), c.GPUID(1, 7))
	// Receiver-side forwarding uses the SOURCE plane (3), then NVLink on
	// the destination host.
	sawSrcNIC := false
	for _, lid := range paths[0] {
		if c.G.Links[lid].From == nodeID(c, "nic-0-3") {
			sawSrcNIC = true
		}
	}
	if !sawSrcNIC {
		t.Error("forward path should leave through the source GPU's own NIC")
	}
}

// A failed-plane detour through a plane that is neither the source
// GPU's nor the destination's: NVLink at both ends, and every NIC, leaf
// and spine on the way belongs to the chosen plane.
func TestPlanePathsCrossLeafDetour(t *testing.T) {
	cfg := H800Config(8, MPFT) // leaves of 4 nodes: nodes 0..3 and 4..7
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const plane = 3
	paths := split(c.PlanePaths(0, 1, 5, 6, plane))
	if len(paths) != cfg.SpinesPerPlane {
		t.Fatalf("cross-leaf paths = %d, want %d (one per spine)", len(paths), cfg.SpinesPerPlane)
	}
	spines := map[int]bool{}
	for _, p := range paths {
		pathEnds(t, c, p, c.GPUID(0, 1), c.GPUID(5, 6))
		for _, lid := range p {
			n := c.G.Nodes[c.G.Links[lid].To]
			if n.ID == nodeID(c, "nvsw-0") || n.ID == nodeID(c, "nvsw-5") || n.Kind == topology.Endpoint {
				continue
			}
			if n.Plane != plane {
				t.Errorf("path crosses %s on plane %d, want plane %d", n.Label, n.Plane, plane)
			}
			if n.Level == 2 {
				spines[n.ID] = true
			}
		}
	}
	if len(spines) != cfg.SpinesPerPlane {
		t.Errorf("paths cross %d distinct spines, want %d", len(spines), cfg.SpinesPerPlane)
	}
}

// nodeID returns the ID of the graph node with the given label.
func nodeID(c *Cluster, label string) int {
	for _, n := range c.G.Nodes {
		if n.Label == label {
			return n.ID
		}
	}
	return -1
}

// refPlanePaths rebuilds a PlanePaths set hop by hop from the graph
// alone, one []int per path: it lists the route's nodes by label (for
// a cross-leaf route, once per spine the plane's leaves reach, in node
// order) and looks each hop's link up by its two ends.
func refPlanePaths(c *Cluster, nodes map[string]int, links map[[2]int]int, a, i, b, j, plane int) [][]int {
	node := func(format string, args ...any) int { return nodes[fmt.Sprintf(format, args...)] }
	nvsw := func(host int) int { return node("nvsw-%d", host) }
	nic := func(host int) int { return node("nic-%d-%d", host, plane) }
	leaf := func(host int) int { return node("leaf-p%d-%d", plane, c.LeafOf(host)) }
	route := func(nodes ...int) []int {
		var p []int
		for k := 1; k < len(nodes); k++ {
			p = append(p, links[[2]int{nodes[k-1], nodes[k]}])
		}
		return p
	}
	src, dst := c.GPUID(a, i), c.GPUID(b, j)
	if a == b {
		if i == j {
			return [][]int{nil}
		}
		return [][]int{route(src, nvsw(a), dst)}
	}
	head := []int{src}
	if i != plane {
		head = append(head, nvsw(a), c.GPUID(a, plane))
	}
	head = append(head, nic(a), leaf(a))
	tail := []int{leaf(b), nic(b), c.GPUID(b, plane)}
	if plane != j {
		tail = append(tail, nvsw(b), dst)
	}
	if c.LeafOf(a) == c.LeafOf(b) {
		return [][]int{route(append(head, tail[1:]...)...)}
	}
	var paths [][]int
	for _, n := range c.G.Nodes {
		if n.Level == 2 && (n.Plane == plane || n.Plane == -1) {
			nodes := append(append(append([]int(nil), head...), n.ID), tail...)
			paths = append(paths, route(nodes...))
		}
	}
	return paths
}

// Every PlanePaths set — same host, same leaf and cross leaf, on both
// fabrics, through every plane — equals, link for link, the hop-by-hop
// reference built from the graph.
func TestPlanePathsMatchHopByHop(t *testing.T) {
	for _, kind := range []FabricKind{MPFT, MRFT} {
		cfg := H800Config(4, kind)
		cfg.NICsPerLeaf = 2 // hosts 0,1 and 2,3 share a leaf
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes, links := map[string]int{}, map[[2]int]int{}
		for _, n := range c.G.Nodes {
			nodes[n.Label] = n.ID
		}
		for _, l := range c.G.Links {
			links[[2]int{l.From, l.To}] = l.ID
		}
		g := cfg.GPUsPerNode
		for a := 0; a < cfg.Nodes; a++ {
			for b := 0; b < cfg.Nodes; b++ {
				for i := 0; i < g; i++ {
					for j := 0; j < g; j++ {
						for plane := 0; plane < g; plane++ {
							set := c.PlanePaths(a, i, b, j, plane)
							ref := refPlanePaths(c, nodes, links, a, i, b, j, plane)
							if set.Len() != len(ref) || int(set.Hops) != len(ref[0]) || len(set.Links) != len(ref)*len(ref[0]) {
								t.Fatalf("%v (%d,%d)->(%d,%d) plane %d: %d paths of %d hops in %d links, want %d of %d",
									kind, a, i, b, j, plane, set.Len(), set.Hops, len(set.Links), len(ref), len(ref[0]))
							}
							for k, p := range ref {
								for h, lid := range p {
									if got := set.Path(k)[h]; int(got) != lid {
										t.Fatalf("%v (%d,%d)->(%d,%d) plane %d: path %d hop %d is link %d, want %d",
											kind, a, i, b, j, plane, k, h, got, lid)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestMRFTSharedSpines(t *testing.T) {
	cfg := H800Config(8, MRFT)
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every plane's leaves reach all shared spines.
	want := cfg.SpinesPerPlane * cfg.GPUsPerNode
	if got := c.SpineSlots(0); got != want {
		t.Errorf("MRFT spine slots = %d, want %d", got, want)
	}
	// MPFT planes are isolated.
	c2, _ := Build(H800Config(8, MPFT))
	if got := c2.SpineSlots(0); got != cfg.SpinesPerPlane {
		t.Errorf("MPFT spine slots = %d, want %d", got, cfg.SpinesPerPlane)
	}
}

func TestMRFTAggregateUplinkMatchesMPFT(t *testing.T) {
	// Hardware parity: total uplink capacity per leaf must match.
	sum := func(c *Cluster) float64 {
		var total float64
		for _, lid := range c.leafUp[0][0] {
			total += c.G.Links[lid].Capacity
		}
		return total
	}
	a, _ := Build(H800Config(8, MPFT))
	b, _ := Build(H800Config(8, MRFT))
	if math.Abs(sum(a)-sum(b)) > 1 {
		t.Errorf("uplink capacity differs: MPFT %v vs MRFT %v", sum(a), sum(b))
	}
}

// A PXN path simulated end-to-end must be NIC-bound: a single flow
// should achieve the NIC effective rate.
func TestPXNPathFlowRate(t *testing.T) {
	c, _ := Build(H800Config(8, MPFT))
	paths := c.PlanePaths(0, 0, 5, 3, 3)
	flow := netsim.Flow{Src: c.GPUID(0, 0), Dst: c.GPUID(5, 3), Bytes: 1 * units.GB, Paths: paths.Only(0)}
	res := netsim.Simulate(c.G, []netsim.Flow{flow})
	want := 1 * units.GB / NICEffective
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("PXN flow time = %v, want %v (NIC-bound)", res.Makespan, want)
	}
}

// Table 5: the latency model must reproduce the paper's values exactly.
func TestTable5Latencies(t *testing.T) {
	p := DefaultLatencyParams()
	cases := []struct {
		layer    LinkLayer
		sameLeaf bool
		want     units.Seconds
	}{
		{RoCE, true, 3.6 * units.Microsecond},
		{RoCE, false, 5.6 * units.Microsecond},
		{IB, true, 2.8 * units.Microsecond},
		{IB, false, 3.7 * units.Microsecond},
		{NVLink, true, 3.33 * units.Microsecond},
	}
	for _, cse := range cases {
		got := p.EndToEnd(cse.layer, cse.sameLeaf)
		if math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("%v sameLeaf=%v: %v, want %v", cse.layer, cse.sameLeaf, got, cse.want)
		}
	}
}

func TestIBBeatsRoCE(t *testing.T) {
	p := DefaultLatencyParams()
	if p.EndToEnd(IB, true) >= p.EndToEnd(RoCE, true) {
		t.Error("IB must have lower latency than RoCE (same leaf)")
	}
	if p.EndToEnd(IB, false) >= p.EndToEnd(RoCE, false) {
		t.Error("IB must have lower latency than RoCE (cross leaf)")
	}
}

func TestFabricKindString(t *testing.T) {
	if MPFT.String() != "MPFT" || MRFT.String() != "MRFT" {
		t.Error("fabric names wrong")
	}
	if IB.String() != "InfiniBand" || RoCE.String() != "RoCE" || NVLink.String() != "NVLink" {
		t.Error("link layer names wrong")
	}
}

func TestClusterConstants(t *testing.T) {
	if NICLine != 50*units.GB {
		t.Error("400 Gbps = 50 GB/s")
	}
	if NVLinkEffective >= NVLinkLine {
		t.Error("effective NVLink must be below line rate")
	}
	if GB200NVL72Bandwidth/NICLine != 18 {
		t.Errorf("NVL72:NIC bandwidth ratio should be 18x, got %v", GB200NVL72Bandwidth/NICLine)
	}
}
