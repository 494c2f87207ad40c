// Package topology builds the network fabrics discussed in §5 of the
// paper — two- and three-layer fat-trees, the Multi-Plane Fat-Tree
// (MPFT) deployed for DeepSeek-V3 and the single-plane Multi-Rail
// Fat-Tree (MRFT) it is compared against. The Slim Fly and Dragonfly
// columns of Table 3's cost comparison enter as closed-form switch and
// link counts (cost.go).
//
// Graphs are directed: a physical cable is two Link records, one per
// direction, so full-duplex contention is modelled naturally by the
// flow simulator in internal/netsim.
package topology

import (
	"fmt"
	"math"

	"dsv3/internal/units"
)

// NodeKind distinguishes traffic sources/sinks from forwarding elements.
type NodeKind int

const (
	// Endpoint nodes originate and terminate flows (GPUs, NICs-as-hosts).
	Endpoint NodeKind = iota
	// Switch nodes only forward.
	Switch
)

// Node is a vertex in the fabric.
type Node struct {
	ID    int
	Kind  NodeKind
	Label string
	// Level annotates fat-tree tiers (0 endpoint, 1 leaf, 2 spine, 3
	// core) and is informational.
	Level int
	// Plane tags multi-plane fabrics; -1 when not applicable.
	Plane int
}

// Link is one direction of a physical cable.
type Link struct {
	ID       int
	From, To int
	Capacity units.BytesPerSecond
	// Latency is the one-way propagation + forwarding latency
	// contribution of this hop.
	Latency units.Seconds
}

// Graph is a directed multigraph with adjacency indexed by node.
type Graph struct {
	Nodes []Node
	Links []Link
	// Out[n] lists link IDs leaving node n.
	Out [][]int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(kind NodeKind, label string, level, plane int) int {
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Label: label, Level: level, Plane: plane})
	g.Out = append(g.Out, nil)
	return id
}

// AddLink adds a single directed link and returns its ID. Paths hold
// link IDs as int32 (see PathSet), so a graph with more links panics.
func (g *Graph) AddLink(from, to int, capacity units.BytesPerSecond, latency units.Seconds) int32 {
	id := len(g.Links)
	if id > math.MaxInt32 {
		panic("topology: link IDs exceed the int32 range")
	}
	g.Links = append(g.Links, Link{ID: id, From: from, To: to, Capacity: capacity, Latency: latency})
	g.Out[from] = append(g.Out[from], id)
	return int32(id)
}

// AddDuplex adds both directions of a cable and returns the two link IDs.
func (g *Graph) AddDuplex(a, b int, capacity units.BytesPerSecond, latency units.Seconds) (ab, ba int32) {
	return g.AddLink(a, b, capacity, latency), g.AddLink(b, a, capacity, latency)
}

// Endpoints returns the IDs of all endpoint nodes, in creation order.
func (g *Graph) Endpoints() []int {
	var eps []int
	for _, n := range g.Nodes {
		if n.Kind == Endpoint {
			eps = append(eps, n.ID)
		}
	}
	return eps
}

// hopDistances computes hop counts from every node TO dst (BFS on the
// reversed graph).
func (g *Graph) hopDistances(dst int) []int {
	const unreachable = 1 << 30
	dist := make([]int, len(g.Nodes))
	for i := range dist {
		dist[i] = unreachable
	}
	dist[dst] = 0
	queue := []int{dst}
	// Reverse adjacency on the fly: for BFS-to-dst we need incoming
	// links, so precompute once per call.
	in := make([][]int, len(g.Nodes))
	for _, l := range g.Links {
		in[l.To] = append(in[l.To], l.ID)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, lid := range in[n] {
			from := g.Links[lid].From
			if dist[from] > dist[n]+1 {
				dist[from] = dist[n] + 1
				queue = append(queue, from)
			}
		}
	}
	return dist
}

// MaxPathsPerPair caps equal-cost path enumeration; the two-layer
// fabrics simulated here have at most a few dozen spines, so hitting
// this cap indicates a misuse (e.g. trying to enumerate an FT3).
const MaxPathsPerPair = 512

// ShortestPaths enumerates all equal-cost shortest paths from src to dst
// as slices of link IDs. It returns an error if the path count exceeds
// MaxPathsPerPair.
func (g *Graph) ShortestPaths(src, dst int) ([][]int, error) {
	if src == dst {
		return [][]int{{}}, nil
	}
	dist := g.hopDistances(dst)
	const unreachable = 1 << 30
	if dist[src] >= unreachable {
		return nil, fmt.Errorf("topology: no path from %d to %d", src, dst)
	}
	var paths [][]int
	var walk func(node int, acc []int) error
	walk = func(node int, acc []int) error {
		if node == dst {
			path := append([]int(nil), acc...)
			paths = append(paths, path)
			if len(paths) > MaxPathsPerPair {
				return fmt.Errorf("topology: more than %d equal-cost paths between %d and %d", MaxPathsPerPair, src, dst)
			}
			return nil
		}
		for _, lid := range g.Out[node] {
			next := g.Links[lid].To
			if dist[next] == dist[node]-1 {
				if err := walk(next, append(acc, lid)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(src, nil); err != nil {
		return nil, err
	}
	return paths, nil
}

// PathSet is the fabric's one path representation: equal-hop paths
// (one pair's equal-cost paths, one multi-plane fan-out, an NVLink hop
// pair) stored back to back as int32 link IDs, path k at
// Links[k*Hops:(k+1)*Hops]. A set with no hops is one empty (loopback)
// path. Caches share their sets: treat Links as immutable.
type PathSet struct {
	Links []int32
	Hops  int32
}

// Len returns the number of paths in the set.
func (s PathSet) Len() int { return max(len(s.Links)/max(int(s.Hops), 1), 1) }

// Path returns path k's link IDs.
func (s PathSet) Path(k int) []int32 { return s.Links[k*int(s.Hops) : (k+1)*int(s.Hops)] }

// Only returns the one-path set holding path k; it shares s's storage.
func (s PathSet) Only(k int) PathSet { return PathSet{Links: s.Path(k), Hops: s.Hops} }

// NewPathSet packs paths into one PathSet. It rejects paths of unequal
// hop counts and link IDs outside the graph, so a set it returns is
// safe to simulate on g.
func (g *Graph) NewPathSet(paths [][]int) (PathSet, error) {
	if len(paths) == 0 {
		return PathSet{}, fmt.Errorf("topology: empty path set")
	}
	set := PathSet{Links: make([]int32, 0, len(paths)*len(paths[0])), Hops: int32(len(paths[0]))}
	for _, p := range paths {
		if len(p) != len(paths[0]) {
			return PathSet{}, fmt.Errorf("topology: path set mixes %d- and %d-hop paths", len(paths[0]), len(p))
		}
		for _, lid := range p {
			if lid < 0 || lid >= len(g.Links) {
				return PathSet{}, fmt.Errorf("topology: path set references invalid link %d", lid)
			}
			set.Links = append(set.Links, int32(lid))
		}
	}
	return set, nil
}

// PathLatency sums the latencies along a path of link IDs.
func (g *Graph) PathLatency(path []int32) units.Seconds {
	var total units.Seconds
	for _, lid := range path {
		total += g.Links[lid].Latency
	}
	return total
}

// Validate checks structural invariants: link endpoints in range and
// every endpoint reachable from every other. It is O(V·E) and intended
// for tests.
func (g *Graph) Validate() error {
	for _, l := range g.Links {
		if l.From < 0 || l.From >= len(g.Nodes) || l.To < 0 || l.To >= len(g.Nodes) {
			return fmt.Errorf("topology: link %d endpoints out of range", l.ID)
		}
		if l.Capacity <= 0 {
			return fmt.Errorf("topology: link %d has non-positive capacity", l.ID)
		}
	}
	eps := g.Endpoints()
	if len(eps) == 0 {
		return nil
	}
	dist := g.hopDistances(eps[0])
	const unreachable = 1 << 30
	for _, e := range eps {
		if dist[e] >= unreachable {
			return fmt.Errorf("topology: endpoint %d cannot reach endpoint %d", e, eps[0])
		}
	}
	return nil
}
