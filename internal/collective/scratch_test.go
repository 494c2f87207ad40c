package collective

import (
	"reflect"
	"testing"

	"dsv3/internal/cluster"
	"dsv3/internal/netsim"
	"dsv3/internal/topology"
	"dsv3/internal/units"
)

// TestScratchAllToAllMatchesFresh reuses one Scratch across different
// cluster sizes, fabrics and message sizes (grow and shrink) and pins
// every result against the scratch-free entry point.
func TestScratchAllToAllMatchesFresh(t *testing.T) {
	opts := DefaultOptions()
	sc := NewScratch()
	cases := []struct {
		nodes int
		kind  cluster.FabricKind
		ranks int
		bytes units.Bytes
	}{
		{4, cluster.MPFT, 32, 256 * units.MiB},
		{8, cluster.MRFT, 64, 1 * units.GiB},
		{2, cluster.MPFT, 16, 64 * units.MiB},
		{4, cluster.MPFT, 32, 256 * units.MiB},
	}
	for i, tc := range cases {
		c, err := cluster.Cached(cluster.H800Config(tc.nodes, tc.kind))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.AllToAll(c, tc.ranks, tc.bytes, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := AllToAll(c, tc.ranks, tc.bytes, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: scratch result %+v != fresh %+v", i, got, want)
		}
	}
}

// TestScratchRingCollectiveMatchesFresh does the same for the ring
// collectives (flow-group bookkeeping and stage buffers included).
func TestScratchRingCollectiveMatchesFresh(t *testing.T) {
	ft := topology.FatTree2{
		Leaves: 4, Spines: 4, EndpointsPerLeaf: 8,
		Params: topology.FabricParams{
			EndpointLinkCap: 22 * units.GB,
			SwitchLinkCap:   22 * units.GB,
			EndpointLinkLat: 1.2 * units.Microsecond,
			SwitchHopLat:    1.0 * units.Microsecond,
		},
	}
	opts := DefaultOptions()
	opts.PerFlowOverheadBytes = 0
	sc := NewScratch()
	for _, pol := range []netsim.Policy{netsim.PolicyECMP, netsim.PolicyAdaptive, netsim.PolicyStatic} {
		// Fresh fabric/router per run: the router's path cache mutates.
		scratchRouter := netsim.NewRouter(ft.Build())
		eps := scratchRouter.Graph().Endpoints()
		groups := [][]int{{eps[0], eps[9], eps[17]}, {eps[1], eps[10], eps[18]}}
		got, err := sc.RingCollective(scratchRouter, groups, 64*units.MiB, pol, opts)
		if err != nil {
			t.Fatal(err)
		}
		freshRouter := netsim.NewRouter(ft.Build())
		want, err := NewScratch().RingCollective(freshRouter, groups, 64*units.MiB, pol, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %v: scratch result %+v != fresh %+v", pol, got, want)
		}
	}
}
