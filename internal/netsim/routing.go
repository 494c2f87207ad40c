package netsim

import (
	"fmt"

	"dsv3/internal/topology"
)

// Policy selects how a flow is mapped onto the equal-cost shortest
// paths between its endpoints (§5.2.2, Figure 8).
type Policy int

const (
	// PolicyECMP hashes each flow onto one path — the default RoCE
	// behaviour whose collisions Figure 8 demonstrates.
	PolicyECMP Policy = iota
	// PolicyAdaptive sprays a flow across all equal-cost paths
	// (adaptive routing / packet spraying).
	PolicyAdaptive
	// PolicyStatic pins each flow to an explicitly chosen path index
	// (manually configured route tables).
	PolicyStatic
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyECMP:
		return "ECMP"
	case PolicyAdaptive:
		return "AR"
	case PolicyStatic:
		return "Static"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Router caches each endpoint pair's equal-cost shortest paths as one
// topology.PathSet and applies a routing policy to pick each flow's.
type Router struct {
	g     *topology.Graph
	cache map[[2]int]topology.PathSet
}

// NewRouter wraps a graph. The graph must not be mutated afterwards.
func NewRouter(g *topology.Graph) *Router {
	return &Router{g: g, cache: make(map[[2]int]topology.PathSet)}
}

// Graph returns the underlying graph.
func (r *Router) Graph() *topology.Graph { return r.g }

// Paths returns (and caches) all equal-cost shortest paths src→dst.
func (r *Router) Paths(src, dst int) (topology.PathSet, error) {
	key := [2]int{src, dst}
	if p, ok := r.cache[key]; ok {
		return p, nil
	}
	paths, err := r.g.ShortestPaths(src, dst)
	if err != nil {
		return topology.PathSet{}, err
	}
	p, err := r.g.NewPathSet(paths)
	if err == nil {
		r.cache[key] = p
	}
	return p, err
}

// Select returns the path set a flow uses under the policy. flowKey
// seeds the ECMP hash (stand-in for the 5-tuple) and doubles as the
// path index under PolicyStatic.
func (r *Router) Select(src, dst int, policy Policy, flowKey uint64) (topology.PathSet, error) {
	paths, err := r.Paths(src, dst)
	n := paths.Len()
	if err != nil || n <= 1 {
		return paths, err
	}
	switch policy {
	case PolicyAdaptive:
		return paths, nil
	case PolicyECMP:
		return paths.Only(int(Splitmix64(flowKey) % uint64(n))), nil
	case PolicyStatic:
		return paths.Only(int(flowKey) % n), nil
	}
	return topology.PathSet{}, fmt.Errorf("netsim: unknown policy %v", policy)
}

// Splitmix64 is the standard 64-bit mix function: deterministic,
// well-distributed, and cheap — a good stand-in for a NIC's ECMP hash.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
