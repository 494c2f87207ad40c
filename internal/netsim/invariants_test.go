package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dsv3/internal/topology"
)

// This file checks the fluid simulator's conservation and fairness
// invariants under randomized workloads — the properties the figure
// reproductions silently rely on.

// randomFabric builds a random small leaf-spine fabric.
func randomFabric(rng *rand.Rand) (*topology.Graph, []int) {
	ft := topology.FatTree2{
		Leaves:           2 + rng.Intn(3),
		Spines:           1 + rng.Intn(3),
		EndpointsPerLeaf: 2 + rng.Intn(3),
		Params: topology.FabricParams{
			EndpointLinkCap: 50 + rng.Float64()*100,
			SwitchLinkCap:   50 + rng.Float64()*100,
		},
	}
	g := ft.Build()
	return g, g.Endpoints()
}

// Property: makespan is at least the lower bound implied by any single
// link's total byte load divided by its capacity.
func TestMakespanAboveLinkLoadBound(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, eps := randomFabric(r)
		router := NewRouter(g)
		linkBytes := make([]float64, len(g.Links))
		var flows []Flow
		for i := 0; i < 4+r.Intn(8); i++ {
			src := eps[r.Intn(len(eps))]
			dst := eps[r.Intn(len(eps))]
			if src == dst {
				continue
			}
			paths, err := router.Select(src, dst, PolicyECMP, uint64(i))
			if err != nil {
				return false
			}
			bytes := 100 + r.Float64()*1000
			flows = append(flows, Flow{Src: src, Dst: dst, Bytes: bytes, Paths: paths})
			for _, lid := range paths.Path(0) {
				linkBytes[lid] += bytes
			}
		}
		if len(flows) == 0 {
			return true
		}
		res := Simulate(g, flows)
		for lid, bytes := range linkBytes {
			bound := bytes / g.Links[lid].Capacity
			if res.Makespan < bound-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: every flow finishes no earlier than its own serialization
// time on its slowest link (running alone is the best case).
func TestFlowFinishAboveSoloBound(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, eps := randomFabric(r)
		router := NewRouter(g)
		var flows []Flow
		for i := 0; i < 3+r.Intn(6); i++ {
			src, dst := eps[r.Intn(len(eps))], eps[r.Intn(len(eps))]
			if src == dst {
				continue
			}
			paths, err := router.Select(src, dst, PolicyECMP, uint64(i*7))
			if err != nil {
				return false
			}
			flows = append(flows, Flow{Src: src, Dst: dst, Bytes: 100 + r.Float64()*500, Paths: paths})
		}
		if len(flows) == 0 {
			return true
		}
		res := Simulate(g, flows)
		for fi, fl := range flows {
			minCap := math.Inf(1)
			for _, lid := range fl.Paths.Path(0) {
				minCap = math.Min(minCap, g.Links[lid].Capacity)
			}
			solo := fl.Bytes / minCap
			if res.FlowFinish[fi] < solo-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: scaling all byte counts scales all finish times linearly
// (fluid model homogeneity).
func TestFluidHomogeneity(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g, eps := randomFabric(rng)
	router := NewRouter(g)
	var flows, scaled []Flow
	const k = 3.5
	for i := 0; i < 6; i++ {
		src, dst := eps[i%len(eps)], eps[(i*3+1)%len(eps)]
		if src == dst {
			continue
		}
		paths, err := router.Select(src, dst, PolicyECMP, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		bytes := 100 + rng.Float64()*900
		flows = append(flows, Flow{Src: src, Dst: dst, Bytes: bytes, Paths: paths})
		scaled = append(scaled, Flow{Src: src, Dst: dst, Bytes: bytes * k, Paths: paths})
	}
	a := Simulate(g, flows)
	b := Simulate(g, scaled)
	for i := range a.FlowFinish {
		if math.Abs(b.FlowFinish[i]-k*a.FlowFinish[i]) > 1e-6*(1+b.FlowFinish[i]) {
			t.Fatalf("homogeneity violated at flow %d: %v vs %v", i, b.FlowFinish[i], k*a.FlowFinish[i])
		}
	}
}

// Property: on a single shared bottleneck, adding a flow never speeds
// up existing flows. (The unrestricted version of this property is
// FALSE for max-min fairness — throttling a competitor on a different
// link can legitimately speed up a flow — so the invariant is only
// asserted in its single-bottleneck form.)
func TestMonotoneUnderLoadSingleBottleneck(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for trial := 0; trial < 30; trial++ {
		g, eps := randomFabric(rng)
		router := NewRouter(g)
		src, dst := eps[0], eps[len(eps)-1]
		paths, err := router.Select(src, dst, PolicyECMP, 1)
		if err != nil {
			t.Fatal(err)
		}
		var flows []Flow
		for i := 0; i < 5; i++ {
			flows = append(flows, Flow{Src: src, Dst: dst, Bytes: 100 + rng.Float64()*900, Paths: paths})
		}
		base := Simulate(g, flows[:len(flows)-1])
		more := Simulate(g, flows)
		for i := range base.FlowFinish {
			if more.FlowFinish[i] < base.FlowFinish[i]-1e-9 {
				t.Fatalf("adding load sped up flow %d: %v -> %v", i, base.FlowFinish[i], more.FlowFinish[i])
			}
		}
	}
}

// RateCap behaviour: a capped flow alone takes bytes/cap; the cap never
// helps and caps compose with congestion.
func TestRateCapProperty(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Endpoint, "a", 0, -1)
	sw := g.AddNode(topology.Switch, "sw", 1, -1)
	b := g.AddNode(topology.Endpoint, "b", 0, -1)
	g.AddDuplex(a, sw, 100, 0)
	g.AddDuplex(sw, b, 100, 0)
	paths, err := NewRouter(g).Paths(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Cap below link rate binds.
	res := Simulate(g, []Flow{{Src: a, Dst: b, Bytes: 1000, Paths: paths, RateCap: 25}})
	if math.Abs(res.Makespan-40) > 1e-9 {
		t.Errorf("capped solo flow should take 40s, got %v", res.Makespan)
	}
	// Cap above link rate is inert.
	res = Simulate(g, []Flow{{Src: a, Dst: b, Bytes: 1000, Paths: paths, RateCap: 1000}})
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Errorf("loose cap should not bind: %v", res.Makespan)
	}
	// Capped + uncapped sharing: capped flow at 25, uncapped gets 75.
	res = Simulate(g, []Flow{
		{Src: a, Dst: b, Bytes: 1000, Paths: paths, RateCap: 25},
		{Src: a, Dst: b, Bytes: 750, Paths: paths},
	})
	if math.Abs(res.FlowFinish[1]-10) > 1e-9 {
		t.Errorf("uncapped flow should absorb headroom: %v", res.FlowFinish[1])
	}
	if math.Abs(res.FlowFinish[0]-40) > 1e-9 {
		t.Errorf("capped flow stays capped: %v", res.FlowFinish[0])
	}
}
