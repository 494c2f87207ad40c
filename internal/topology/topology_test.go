package topology

import (
	"math"
	"testing"

	"dsv3/internal/units"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Endpoint, "a", 0, -1)
	sw := g.AddNode(Switch, "sw", 1, -1)
	b := g.AddNode(Endpoint, "b", 0, -1)
	g.AddDuplex(a, sw, 1, 1)
	g.AddDuplex(sw, b, 1, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	eps := g.Endpoints()
	if len(eps) != 2 || eps[0] != a || eps[1] != b {
		t.Fatalf("endpoints wrong: %v", eps)
	}
	paths, err := g.ShortestPaths(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Fatalf("expected one 2-hop path, got %v", paths)
	}
	set, err := g.NewPathSet(paths)
	if err != nil {
		t.Fatal(err)
	}
	if g.PathLatency(set.Path(0)) != 2 {
		t.Errorf("path latency = %v", g.PathLatency(set.Path(0)))
	}
}

// NewPathSet packs equal-hop paths back to back and rejects a set it
// could not simulate: paths of unequal hop counts, or a link outside the
// graph.
func TestNewPathSet(t *testing.T) {
	ft := FatTree2{Leaves: 2, Spines: 3, EndpointsPerLeaf: 1, Params: IB400G()}
	g := ft.Build()
	eps := g.Endpoints()
	paths, err := g.ShortestPaths(eps[0], eps[1])
	if err != nil {
		t.Fatal(err)
	}
	set, err := g.NewPathSet(paths)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 || set.Hops != 4 || len(set.Links) != 12 {
		t.Fatalf("set holds %d paths of %d hops in %d links, want 3 of 4 in 12", set.Len(), set.Hops, len(set.Links))
	}
	for k, p := range paths {
		for h, lid := range p {
			if set.Path(k)[h] != int32(lid) {
				t.Fatalf("path %d hop %d: link %d, want %d", k, h, set.Path(k)[h], lid)
			}
		}
		if only := set.Only(k); only.Len() != 1 || &only.Links[0] != &set.Path(k)[0] {
			t.Errorf("Only(%d) should be path %d in place", k, k)
		}
	}
	self, err := g.NewPathSet([][]int{{}})
	if err != nil || self.Len() != 1 || self.Hops != 0 {
		t.Errorf("a loopback set should be one empty path: %+v, %v", self, err)
	}
	for name, bad := range map[string][][]int{
		"unequal hops":  {paths[0], paths[1][:2]},
		"link 9999":     {{0, 9999}},
		"negative link": {{-1}},
		"no paths":      nil,
	} {
		if _, err := g.NewPathSet(bad); err == nil {
			t.Errorf("%s: NewPathSet accepted %v", name, bad)
		}
	}
}

func TestShortestPathsSelf(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Endpoint, "a", 0, -1)
	paths, err := g.ShortestPaths(a, a)
	if err != nil || len(paths) != 1 || len(paths[0]) != 0 {
		t.Fatalf("self path should be one empty path: %v, %v", paths, err)
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Endpoint, "a", 0, -1)
	b := g.AddNode(Endpoint, "b", 0, -1)
	if _, err := g.ShortestPaths(a, b); err == nil {
		t.Error("expected unreachable error")
	}
}

func TestFatTree2Structure(t *testing.T) {
	ft := FatTree2{Leaves: 4, Spines: 2, EndpointsPerLeaf: 8, Params: IB400G()}
	g := ft.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(g.Endpoints()); got != 32 {
		t.Fatalf("endpoints = %d, want 32", got)
	}
	switches := 0
	for _, n := range g.Nodes {
		if n.Kind == Switch {
			switches++
		}
	}
	if switches != 6 {
		t.Errorf("switches = %d, want 6", switches)
	}
}

func TestFatTree2PathDiversity(t *testing.T) {
	ft := FatTree2{Leaves: 4, Spines: 3, EndpointsPerLeaf: 2, Params: IB400G()}
	g := ft.Build()
	eps := g.Endpoints()
	// Same-leaf endpoints: one 2-hop path through the shared leaf.
	paths, err := g.ShortestPaths(eps[0], eps[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Errorf("same-leaf: expected one 2-hop path, got %d paths", len(paths))
	}
	// Cross-leaf: one path per spine, 4 hops each.
	paths, err = g.ShortestPaths(eps[0], eps[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Errorf("cross-leaf: expected 3 equal-cost paths, got %d", len(paths))
	}
	for _, p := range paths {
		if len(p) != 4 {
			t.Errorf("cross-leaf path should have 4 hops, got %d", len(p))
		}
	}
}

// Table 3 counts must reproduce the paper's rows exactly.
func TestTable3CountsExact(t *testing.T) {
	rows, err := Table3Topologies()
	if err != nil {
		t.Fatal(err)
	}
	want := []Counts{
		{"FT2", 2048, 96, 2048},
		{"MPFT", 16384, 768, 16384},
		{"FT3", 65536, 5120, 131072},
		{"SF", 32928, 1568, 32928},
		{"DF", 261632, 16352, 384272},
	}
	if len(rows) != len(want) {
		t.Fatalf("row count = %d", len(rows))
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %s: got %+v, want %+v", w.Name, rows[i], w)
		}
	}
}

// Table 3 costs: the calibrated model must land within 1.5% of every
// paper figure (cost in M$ and k$/endpoint).
func TestTable3Costs(t *testing.T) {
	rows, _ := Table3Topologies()
	m := DefaultCostModel()
	paperCost := []float64{9e6, 72e6, 491e6, 146e6, 1522e6}
	paperPerEp := []float64{4390, 4390, 7500, 4400, 5800}
	for i, c := range rows {
		cost := m.Cost(c)
		if math.Abs(cost-paperCost[i]) > 0.015*paperCost[i] {
			t.Errorf("%s cost = %.1fM$, paper %.0fM$", c.Name, cost/1e6, paperCost[i]/1e6)
		}
		perEp := m.CostPerEndpoint(c)
		if math.Abs(perEp-paperPerEp[i]) > 0.02*paperPerEp[i] {
			t.Errorf("%s cost/endpoint = %.0f$, paper %.0f$", c.Name, perEp, paperPerEp[i])
		}
	}
}

func TestCostPerEndpointZero(t *testing.T) {
	if got := DefaultCostModel().CostPerEndpoint(Counts{}); got != 0 {
		t.Errorf("zero endpoints should cost 0/ep, got %v", got)
	}
}

func TestMPFTCostMatchesFT2PerEndpoint(t *testing.T) {
	// The headline of Table 3: MPFT scales FT2 8x at identical
	// cost-per-endpoint.
	m := DefaultCostModel()
	ft2 := FT2Counts(64)
	mpft := MPFTCounts(64, 8)
	if math.Abs(m.CostPerEndpoint(ft2)-m.CostPerEndpoint(mpft)) > 1e-9 {
		t.Error("MPFT and FT2 must have identical cost/endpoint")
	}
	ft3 := FT3Counts(64)
	if m.CostPerEndpoint(ft3) < 1.5*m.CostPerEndpoint(mpft) {
		t.Error("FT3 should be much more expensive per endpoint")
	}
}

func TestSlimFlyDeltaValidation(t *testing.T) {
	if _, err := SlimFlyCounts(28); err != nil {
		t.Errorf("q=28 valid: %v", err)
	}
	if _, err := SlimFlyCounts(6); err == nil {
		t.Error("q=6 (q mod 4 == 2) must be rejected")
	}
}

func TestSlimFlyGraphSmall(t *testing.T) {
	sf := SlimFly{Q: 5, EndpointsPerSwitch: 2, Params: IB400G()}
	g, err := sf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	switches := 0
	for _, n := range g.Nodes {
		if n.Kind == Switch {
			switches++
		}
	}
	if switches != 50 { // 2q²
		t.Errorf("switches = %d, want 50", switches)
	}
	// The closed form the cost model prices must match the built graph.
	want, err := SlimFlyCounts(5)
	if err != nil {
		t.Fatal(err)
	}
	interLinks := 0
	for _, l := range g.Links {
		if g.Nodes[l.From].Kind == Switch && g.Nodes[l.To].Kind == Switch && l.From < l.To {
			interLinks++
		}
	}
	if switches != want.Switches || interLinks != want.InterSwitchLinks {
		t.Errorf("built %d switches / %d inter-switch links, SlimFlyCounts says %d / %d",
			switches, interLinks, want.Switches, want.InterSwitchLinks)
	}
	// Network degree of every switch must be (3q-δ)/2 = 7 for q=5.
	for _, n := range g.Nodes {
		if n.Kind != Switch {
			continue
		}
		deg := 0
		for _, lid := range g.Out[n.ID] {
			if g.Nodes[g.Links[lid].To].Kind == Switch {
				deg++
			}
		}
		if deg != 7 {
			t.Fatalf("switch %d degree = %d, want 7", n.ID, deg)
		}
	}
	// The MMS graph has diameter 2.
	if d := SwitchDiameter(g); d != 2 {
		t.Errorf("Slim Fly diameter = %d, want 2", d)
	}
}

func TestSlimFlyRejectsBadQ(t *testing.T) {
	for _, q := range []int{4, 7, 9} { // not prime ≡ 1 mod 4
		sf := SlimFly{Q: q, EndpointsPerSwitch: 1, Params: IB400G()}
		if _, err := sf.Build(); err == nil {
			t.Errorf("q=%d should be rejected by the builder", q)
		}
	}
}

func TestDragonflySmall(t *testing.T) {
	df := Dragonfly{EndpointsPerRouter: 2, RoutersPerGroup: 4, GlobalPerRouter: 2, Groups: 9, Params: IB400G()}
	g, err := df.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := DragonflyCounts(2, 4, 2, 9)
	if got := len(g.Endpoints()); got != want.Endpoints {
		t.Errorf("endpoints = %d, want %d", got, want.Endpoints)
	}
	switches, interLinks := 0, 0
	for _, n := range g.Nodes {
		if n.Kind == Switch {
			switches++
		}
	}
	for _, l := range g.Links {
		if g.Nodes[l.From].Kind == Switch && g.Nodes[l.To].Kind == Switch && l.From < l.To {
			interLinks++
		}
	}
	if switches != want.Switches {
		t.Errorf("switches = %d, want %d", switches, want.Switches)
	}
	if interLinks != want.InterSwitchLinks {
		t.Errorf("inter-switch cables = %d, want %d", interLinks, want.InterSwitchLinks)
	}
	// Every group pair shares exactly one global cable => switch
	// diameter is at most 3 (local, global, local).
	if d := SwitchDiameter(g); d > 3 {
		t.Errorf("dragonfly diameter = %d, want <= 3", d)
	}
}

func TestDragonflyRejectsWrongGroups(t *testing.T) {
	df := Dragonfly{EndpointsPerRouter: 1, RoutersPerGroup: 4, GlobalPerRouter: 2, Groups: 5, Params: IB400G()}
	if _, err := df.Build(); err == nil {
		t.Error("g != a*h+1 must be rejected")
	}
}

func TestFabricParamValues(t *testing.T) {
	ib := IB400G()
	if ib.EndpointLinkCap != 50*units.GB {
		t.Errorf("400G IB should be 50 GB/s, got %v", ib.EndpointLinkCap)
	}
}
