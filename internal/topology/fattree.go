package topology

import (
	"fmt"

	"dsv3/internal/units"
)

// FabricParams carries the link-level constants of a fabric build.
type FabricParams struct {
	// EndpointLinkCap is the NIC line rate (one direction).
	EndpointLinkCap units.BytesPerSecond
	// SwitchLinkCap is the inter-switch line rate (one direction).
	SwitchLinkCap units.BytesPerSecond
	// EndpointLinkLat and SwitchHopLat are per-hop one-way latencies.
	EndpointLinkLat units.Seconds
	SwitchHopLat    units.Seconds
}

// FatTree2 describes a two-layer (leaf-spine) fat-tree build.
type FatTree2 struct {
	Leaves           int
	Spines           int
	EndpointsPerLeaf int
	Params           FabricParams
}

// Build constructs the graph: endpoints under leaves, every leaf
// connected to every spine.
func (ft FatTree2) Build() *Graph {
	g := NewGraph()
	leafIDs := make([]int, ft.Leaves)
	spineIDs := make([]int, ft.Spines)
	for s := 0; s < ft.Spines; s++ {
		spineIDs[s] = g.AddNode(Switch, fmt.Sprintf("spine%d", s), 2, -1)
	}
	for l := 0; l < ft.Leaves; l++ {
		leafIDs[l] = g.AddNode(Switch, fmt.Sprintf("leaf%d", l), 1, -1)
		for s := 0; s < ft.Spines; s++ {
			g.AddDuplex(leafIDs[l], spineIDs[s], ft.Params.SwitchLinkCap, ft.Params.SwitchHopLat)
		}
		for e := 0; e < ft.EndpointsPerLeaf; e++ {
			ep := g.AddNode(Endpoint, fmt.Sprintf("ep%d-%d", l, e), 0, -1)
			g.AddDuplex(ep, leafIDs[l], ft.Params.EndpointLinkCap, ft.Params.EndpointLinkLat)
		}
	}
	return g
}
