package netsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dsv3/internal/topology"
	"dsv3/internal/units"
)

type fixture struct {
	g     *topology.Graph
	flows []Flow
}

// reuseFixtures builds a few deliberately different flow sets — sizes,
// rate caps, staged starts, multipath — over two different graphs, so
// reusing one Sim across them exercises every grow/reset path. They end
// with sprayed all-to-alls over fat-trees of 2, 4 and 8 leaves, the way
// figure5 grows one Sim from 32 to 64 to 128 GPUs.
func reuseFixtures() []fixture {
	small := topology.FatTree2{
		Leaves: 2, Spines: 2, EndpointsPerLeaf: 2,
		Params: topology.FabricParams{
			EndpointLinkCap: 10, SwitchLinkCap: 10,
			EndpointLinkLat: 1e-6, SwitchHopLat: 1e-6,
		},
	}.Build()
	big := topology.FatTree2{
		Leaves: 4, Spines: 4, EndpointsPerLeaf: 4,
		Params: topology.FabricParams{
			EndpointLinkCap: 25, SwitchLinkCap: 25,
			EndpointLinkLat: 1e-6, SwitchHopLat: 1e-6,
		},
	}.Build()
	smallRouter := NewRouter(small)
	bigRouter := NewRouter(big)
	sEps := small.Endpoints()
	bEps := big.Endpoints()
	fixtures := []fixture{
		{small, []Flow{
			{Src: sEps[0], Dst: sEps[2], Bytes: 100, Paths: spray(smallRouter, sEps[0], sEps[2])},
			{Src: sEps[1], Dst: sEps[3], Bytes: 50, Paths: spray(smallRouter, sEps[1], sEps[3]), RateCap: 3},
			{Src: sEps[0], Dst: sEps[0], Bytes: 10}, // loopback
		}},
		{big, []Flow{
			{Src: bEps[0], Dst: bEps[9], Bytes: 400, Paths: spray(bigRouter, bEps[0], bEps[9])},
			{Src: bEps[1], Dst: bEps[8], Bytes: 200, Paths: spray(bigRouter, bEps[1], bEps[8]), StartTime: 2},
			{Src: bEps[2], Dst: bEps[12], Bytes: 300, Paths: spray(bigRouter, bEps[2], bEps[12]), RateCap: 5},
			{Src: bEps[3], Dst: bEps[15], Bytes: 100, Paths: spray(bigRouter, bEps[3], bEps[15]), StartTime: 1},
		}},
		{small, []Flow{
			{Src: sEps[2], Dst: sEps[1], Bytes: 75, Paths: spray(smallRouter, sEps[2], sEps[1])},
		}},
	}
	for _, leaves := range []int{2, 4, 8} {
		fixtures = append(fixtures, allToAllFixture(leaves))
	}
	return fixtures
}

// spray returns every equal-cost path from src to dst.
func spray(r *Router, src, dst int) topology.PathSet {
	paths, err := r.Select(src, dst, PolicyAdaptive, 0)
	if err != nil {
		panic(err)
	}
	return paths
}

// allToAllFixture is a sprayed all-to-all over a fat-tree with the
// given number of leaves, 4 endpoints per leaf and 4 spines. Every
// third flow is rate-capped (so the run has virtual links), every fifth
// starts late, and some are zero-byte, so growing one Sim through these
// fixtures grows every table, the capped-link range and the staged
// admission order together.
func allToAllFixture(leaves int) fixture {
	g := topology.FatTree2{
		Leaves: leaves, Spines: 4, EndpointsPerLeaf: 4,
		Params: topology.FabricParams{
			EndpointLinkCap: 40, SwitchLinkCap: 20,
			EndpointLinkLat: 1e-6, SwitchHopLat: 1e-6,
		},
	}.Build()
	r := NewRouter(g)
	eps := g.Endpoints()
	var flows []Flow
	for _, src := range eps {
		for _, dst := range eps {
			if src == dst {
				continue
			}
			i := len(flows)
			f := Flow{Src: src, Dst: dst, Bytes: units.Bytes(64 + 16*(i%7)), Paths: spray(r, src, dst), StartupLatency: 1e-6}
			if i%3 == 0 {
				f.RateCap = 1.5
			}
			if i%5 == 0 {
				f.StartTime = units.Seconds(i%4) * 0.5
			}
			if i%11 == 0 {
				f.Bytes = 0
			}
			flows = append(flows, f)
		}
	}
	return fixture{g, flows}
}

func cloneResult(r Result) Result {
	r.FlowFinish = append([]units.Seconds(nil), r.FlowFinish...)
	return r
}

// TestSimReuseMatchesSimulate runs heterogeneous flow sets through one
// Sim (twice over, so shrink-then-grow and grow-then-shrink both
// happen) and checks every result against the allocation-per-call
// package function.
func TestSimReuseMatchesSimulate(t *testing.T) {
	fixtures := reuseFixtures()
	sim := NewSim()
	for round := 0; round < 2; round++ {
		for i, fx := range fixtures {
			got := cloneResult(sim.Simulate(fx.g, fx.flows))
			want := Simulate(fx.g, fx.flows)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d fixture %d: reused Sim diverged\n got %+v\nwant %+v", round, i, got, want)
			}
		}
	}
}

// TestSimReuseNoBleed pins that two consecutive runs of the same flow
// set on one Sim are identical — stale scratch (water-filling counts,
// subflow tables, finish times) must not leak into the next run. The
// Sim is carried through every fixture in turn, so the repeated runs
// also follow a growth of every buffer.
func TestSimReuseNoBleed(t *testing.T) {
	sim := NewSim()
	for i, fx := range reuseFixtures() {
		first := cloneResult(sim.Simulate(fx.g, fx.flows))
		second := cloneResult(sim.Simulate(fx.g, fx.flows))
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("fixture %d: consecutive Sim runs diverged:\n%+v\n%+v", i, first, second)
		}
	}
}

// A count too large for the simulator's int32 indices panics naming
// the count; the largest one that fits does not.
func TestCheckInt32(t *testing.T) {
	checkInt32("subflows", math.MaxInt32)
	over := int64(math.MaxInt32) + 1
	if int64(int(over)) != over {
		t.Skip("int is 32 bits wide: no count can exceed the int32 range")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2147483648 subflows exceed the int32 index range") {
			t.Errorf("panic = %q, want the int32 range message", msg)
		}
	}()
	checkInt32("subflows", int(over))
}
