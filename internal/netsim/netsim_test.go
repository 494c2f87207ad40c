package netsim

import (
	"math"
	"testing"

	"dsv3/internal/topology"
	"dsv3/internal/units"
)

// lineGraph builds a -- sw -- b with the given capacities.
func lineGraph(capacity units.BytesPerSecond) (*topology.Graph, int, int) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Endpoint, "a", 0, -1)
	sw := g.AddNode(topology.Switch, "sw", 1, -1)
	b := g.AddNode(topology.Endpoint, "b", 0, -1)
	g.AddDuplex(a, sw, capacity, 1e-6)
	g.AddDuplex(sw, b, capacity, 1e-6)
	return g, a, b
}

func pathsOf(t *testing.T, g *topology.Graph, src, dst int) topology.PathSet {
	t.Helper()
	p, err := NewRouter(g).Paths(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSingleFlowCompletionTime(t *testing.T) {
	g, a, b := lineGraph(100)
	flows := []Flow{{Src: a, Dst: b, Bytes: 1000, Paths: pathsOf(t, g, a, b).Only(0)}}
	res := Simulate(g, flows)
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Errorf("1000 B at 100 B/s should take 10 s, got %v", res.Makespan)
	}
}

func TestStartupLatencyAdds(t *testing.T) {
	g, a, b := lineGraph(100)
	flows := []Flow{{Src: a, Dst: b, Bytes: 1000, Paths: pathsOf(t, g, a, b).Only(0), StartupLatency: 2.5}}
	res := Simulate(g, flows)
	if math.Abs(res.Makespan-12.5) > 1e-9 {
		t.Errorf("expected 12.5 s, got %v", res.Makespan)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	g, a, b := lineGraph(100)
	p := pathsOf(t, g, a, b).Only(0)
	flows := []Flow{
		{Src: a, Dst: b, Bytes: 1000, Paths: p},
		{Src: a, Dst: b, Bytes: 1000, Paths: p},
	}
	res := Simulate(g, flows)
	// Both share 100 B/s: each runs at 50 => 20 s.
	if math.Abs(res.Makespan-20) > 1e-9 {
		t.Errorf("two equal flows should take 20 s, got %v", res.Makespan)
	}
}

func TestShortFlowFinishesThenLongSpeedsUp(t *testing.T) {
	g, a, b := lineGraph(100)
	p := pathsOf(t, g, a, b).Only(0)
	flows := []Flow{
		{Src: a, Dst: b, Bytes: 500, Paths: p},
		{Src: a, Dst: b, Bytes: 1500, Paths: p},
	}
	res := Simulate(g, flows)
	// Phase 1: both at 50 B/s for 10 s (short one done, long has 1000
	// left). Phase 2: long one at 100 B/s for 10 s. Total 20 s.
	if math.Abs(res.FlowFinish[0]-10) > 1e-9 {
		t.Errorf("short flow finish = %v, want 10", res.FlowFinish[0])
	}
	if math.Abs(res.FlowFinish[1]-20) > 1e-9 {
		t.Errorf("long flow finish = %v, want 20", res.FlowFinish[1])
	}
}

func TestZeroByteFlow(t *testing.T) {
	g, a, b := lineGraph(100)
	flows := []Flow{{Src: a, Dst: b, Bytes: 0, Paths: pathsOf(t, g, a, b).Only(0), StartupLatency: 3e-6}}
	res := Simulate(g, flows)
	if res.Makespan != 3e-6 {
		t.Errorf("zero-byte flow should finish at startup latency, got %v", res.Makespan)
	}
}

func TestLoopbackFlow(t *testing.T) {
	g, a, _ := lineGraph(100)
	flows := []Flow{{Src: a, Dst: a, Bytes: 1e12, Paths: topology.PathSet{}, StartupLatency: 1e-6}}
	res := Simulate(g, flows)
	if res.Makespan != 1e-6 {
		t.Errorf("loopback should not consume network time, got %v", res.Makespan)
	}
}

func TestDelayedStart(t *testing.T) {
	g, a, b := lineGraph(100)
	p := pathsOf(t, g, a, b).Only(0)
	flows := []Flow{
		{Src: a, Dst: b, Bytes: 1000, Paths: p},
		{Src: a, Dst: b, Bytes: 1000, Paths: p, StartTime: 10},
	}
	res := Simulate(g, flows)
	// Flow 0 runs alone at 100 B/s, finishing exactly when flow 1
	// starts; flow 1 then runs alone: 10 + 10.
	if math.Abs(res.FlowFinish[0]-10) > 1e-9 || math.Abs(res.FlowFinish[1]-20) > 1e-9 {
		t.Errorf("staged flows wrong: %v", res.FlowFinish)
	}
}

func TestDelayedStartContention(t *testing.T) {
	g, a, b := lineGraph(100)
	p := pathsOf(t, g, a, b).Only(0)
	flows := []Flow{
		{Src: a, Dst: b, Bytes: 1500, Paths: p},
		{Src: a, Dst: b, Bytes: 500, Paths: p, StartTime: 5},
	}
	res := Simulate(g, flows)
	// 0-5 s: flow 0 alone at 100 (500 done, 1000 left). 5-15 s: both at
	// 50 (flow 1 done at 15, flow 0 has 500 left). 15-20: flow 0 at 100.
	if math.Abs(res.FlowFinish[1]-15) > 1e-9 {
		t.Errorf("flow 1 finish = %v, want 15", res.FlowFinish[1])
	}
	if math.Abs(res.FlowFinish[0]-20) > 1e-9 {
		t.Errorf("flow 0 finish = %v, want 20", res.FlowFinish[0])
	}
}

// multiPathGraph: a - leaf1 - {s1, s2} - leaf2 - b (two equal paths).
func multiPathGraph() (*topology.Graph, int, int) {
	ft := topology.FatTree2{Leaves: 2, Spines: 2, EndpointsPerLeaf: 1,
		Params: topology.FabricParams{EndpointLinkCap: 1000, SwitchLinkCap: 100, EndpointLinkLat: 0, SwitchHopLat: 0}}
	g := ft.Build()
	eps := g.Endpoints()
	return g, eps[0], eps[1]
}

func TestMultipathSpraying(t *testing.T) {
	g, a, b := multiPathGraph()
	paths := pathsOf(t, g, a, b)
	if paths.Len() != 2 {
		t.Fatalf("expected 2 paths, got %d", paths.Len())
	}
	flows := []Flow{{Src: a, Dst: b, Bytes: 1000, Paths: paths}}
	res := Simulate(g, flows)
	// Sprayed over two 100 B/s spine paths: 200 B/s aggregate => 5 s.
	if math.Abs(res.Makespan-5) > 1e-9 {
		t.Errorf("sprayed flow should take 5 s, got %v", res.Makespan)
	}
}

func TestSinglePathUsesOneSpine(t *testing.T) {
	g, a, b := multiPathGraph()
	paths := pathsOf(t, g, a, b)
	flows := []Flow{{Src: a, Dst: b, Bytes: 1000, Paths: paths.Only(0)}}
	res := Simulate(g, flows)
	if math.Abs(res.Makespan-10) > 1e-9 {
		t.Errorf("single-path flow should take 10 s, got %v", res.Makespan)
	}
}

func TestECMPCollisionSlowsFlows(t *testing.T) {
	// Two flows hashed onto the same spine run at half rate; adaptive
	// routing spreads them and restores full rate. This is Figure 8's
	// mechanism in miniature.
	g, a, b := multiPathGraph()
	paths := pathsOf(t, g, a, b)
	collide := []Flow{
		{Src: a, Dst: b, Bytes: 1000, Paths: paths.Only(0)},
		{Src: a, Dst: b, Bytes: 1000, Paths: paths.Only(0)},
	}
	spread := []Flow{
		{Src: a, Dst: b, Bytes: 1000, Paths: paths.Only(0)},
		{Src: a, Dst: b, Bytes: 1000, Paths: paths.Only(1)},
	}
	tCollide := Simulate(g, collide).Makespan
	tSpread := Simulate(g, spread).Makespan
	if math.Abs(tCollide-2*tSpread) > 1e-9 {
		t.Errorf("collision should halve throughput: %v vs %v", tCollide, tSpread)
	}
}

func TestMaxLinkBytesHotspot(t *testing.T) {
	g, a, b := multiPathGraph()
	paths := pathsOf(t, g, a, b)
	flows := []Flow{
		{Src: a, Dst: b, Bytes: 600, Paths: paths.Only(0)},
		{Src: a, Dst: b, Bytes: 400, Paths: paths.Only(0)},
	}
	res := Simulate(g, flows)
	if res.MaxLinkBytes != 1000 {
		t.Errorf("hotspot bytes = %v, want 1000", res.MaxLinkBytes)
	}
}

func TestInvalidLinkPanics(t *testing.T) {
	g, a, b := lineGraph(100)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid link ID")
		}
	}()
	Simulate(g, []Flow{{Src: a, Dst: b, Bytes: 1, Paths: topology.PathSet{Links: []int32{9999}, Hops: 1}}})
}

func TestRouterPolicies(t *testing.T) {
	g, a, b := multiPathGraph()
	r := NewRouter(g)

	// Adaptive: all paths.
	ps, err := r.Select(a, b, PolicyAdaptive, 0)
	if err != nil || ps.Len() != 2 {
		t.Fatalf("adaptive should return 2 paths: %v, %v", ps, err)
	}
	// ECMP: deterministic single path for a given key.
	p1, _ := r.Select(a, b, PolicyECMP, 42)
	p2, _ := r.Select(a, b, PolicyECMP, 42)
	if p1.Len() != 1 || p2.Len() != 1 || &p1.Links[0] != &p2.Links[0] {
		t.Error("ECMP must be deterministic per key")
	}
	// ECMP: different keys eventually use different paths. The paths
	// differ at the leaf→spine hop (index 1); the first hop is the
	// shared endpoint→leaf link.
	seen := map[int32]bool{}
	for key := uint64(0); key < 32; key++ {
		p, _ := r.Select(a, b, PolicyECMP, key)
		seen[p.Path(0)[1]] = true
	}
	if len(seen) < 2 {
		t.Error("ECMP hash never spread across paths")
	}
	// Static: index selects the path directly.
	s0, _ := r.Select(a, b, PolicyStatic, 0)
	s1, _ := r.Select(a, b, PolicyStatic, 1)
	if s0.Path(0)[1] == s1.Path(0)[1] {
		t.Error("static indices 0 and 1 should pick distinct paths")
	}
}

func TestRouterCaching(t *testing.T) {
	g, a, b := multiPathGraph()
	r := NewRouter(g)
	first, err := r.Paths(a, b)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := r.Paths(a, b)
	if &first.Links[0] != &second.Links[0] {
		t.Error("second lookup should hit the cache")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyECMP.String() != "ECMP" || PolicyAdaptive.String() != "AR" || PolicyStatic.String() != "Static" {
		t.Error("policy names wrong")
	}
}

// Conservation sanity: simulating N identical flows through one link
// takes N times the single-flow time.
func TestLinearScalingOnSharedLink(t *testing.T) {
	g, a, b := lineGraph(100)
	p := pathsOf(t, g, a, b).Only(0)
	for _, n := range []int{1, 3, 7} {
		flows := make([]Flow, n)
		for i := range flows {
			flows[i] = Flow{Src: a, Dst: b, Bytes: 100, Paths: p}
		}
		res := Simulate(g, flows)
		want := float64(n)
		if math.Abs(res.Makespan-want) > 1e-9 {
			t.Errorf("n=%d: makespan %v, want %v", n, res.Makespan, want)
		}
	}
}

// The router's cached set holds exactly the graph's equal-cost shortest
// paths, in enumeration order, for every endpoint pair (self pairs
// included, as one empty path).
func TestRouterPathsMatchShortestPaths(t *testing.T) {
	g := topology.FatTree2{Leaves: 3, Spines: 3, EndpointsPerLeaf: 2, Params: topology.FabricParams{EndpointLinkCap: 50, SwitchLinkCap: 50}}.Build()
	r := NewRouter(g)
	for _, src := range g.Endpoints() {
		for _, dst := range g.Endpoints() {
			want, err := g.ShortestPaths(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			set, err := r.Paths(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if set.Len() != len(want) {
				t.Fatalf("%d->%d: %d paths, want %d", src, dst, set.Len(), len(want))
			}
			for k, p := range want {
				got := set.Path(k)
				if len(got) != len(p) {
					t.Fatalf("%d->%d path %d: %d hops, want %d", src, dst, k, len(got), len(p))
				}
				for h, lid := range p {
					if int(got[h]) != lid {
						t.Fatalf("%d->%d path %d hop %d: link %d, want %d", src, dst, k, h, got[h], lid)
					}
				}
			}
		}
	}
}
