package topology

import (
	"fmt"

	"dsv3/internal/units"
)

// IB400G returns fabric parameters for the paper's 400G NDR InfiniBand:
// 50 GB/s line rate and sub-microsecond hops (calibrated so the Table 5
// CPU-side latencies reproduce: see internal/cluster).
func IB400G() FabricParams {
	return FabricParams{
		EndpointLinkCap: 50 * units.GB,
		SwitchLinkCap:   50 * units.GB,
		EndpointLinkLat: 0.2 * units.Microsecond,
		SwitchHopLat:    0.45 * units.Microsecond,
	}
}

// SlimFly builds the McKay–Miller–Širáň (MMS) graph underlying the Slim
// Fly topology referenced by Table 3. The construction here supports
// prime q with q ≡ 1 (mod 4), which covers the small instances the
// tests build (q = 5); the closed-form SlimFlyCounts, which the cost
// model uses, handles arbitrary valid q and is checked against it.
//
// Vertices are (0, x, y) "row" routers and (1, m, c) "column" routers,
// x, y, m, c ∈ F_q:
//
//	(0,x,y) ~ (0,x,y')  iff  y-y'  ∈ X  (even powers of a primitive root)
//	(1,m,c) ~ (1,m,c')  iff  c-c' ∈ X' (odd powers)
//	(0,x,y) ~ (1,m,c)   iff  y = m·x + c
type SlimFly struct {
	Q                  int
	EndpointsPerSwitch int
	Params             FabricParams
}

// Build constructs the MMS graph plus attached endpoints. It returns an
// error when q is not a prime ≡ 1 (mod 4).
func (sf SlimFly) Build() (*Graph, error) {
	q := sf.Q
	if !isPrime(q) || q%4 != 1 {
		return nil, fmt.Errorf("topology: SlimFly builder requires prime q ≡ 1 (mod 4), got %d", q)
	}
	xi, err := primitiveRoot(q)
	if err != nil {
		return nil, err
	}
	// Even and odd powers of the primitive root.
	inX := make([]bool, q)  // even powers
	inXp := make([]bool, q) // odd powers
	v := 1
	for i := 0; i < q-1; i++ {
		if i%2 == 0 {
			inX[v] = true
		} else {
			inXp[v] = true
		}
		v = v * xi % q
	}

	g := NewGraph()
	// switchID[s][a][b] with s in {0,1}.
	id := func(s, a, b int) int { return s*q*q + a*q + b }
	ids := make([]int, 2*q*q)
	for s := 0; s < 2; s++ {
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				ids[id(s, a, b)] = g.AddNode(Switch, fmt.Sprintf("sf%d-%d-%d", s, a, b), 1, -1)
			}
		}
	}
	addEdge := func(u, w int) { g.AddDuplex(ids[u], ids[w], sf.Params.SwitchLinkCap, sf.Params.SwitchHopLat) }
	// Intra-"row" edges.
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			for yp := y + 1; yp < q; yp++ {
				if inX[(y-yp+q)%q] {
					addEdge(id(0, x, y), id(0, x, yp))
				}
			}
		}
	}
	// Intra-"column" edges.
	for m := 0; m < q; m++ {
		for c := 0; c < q; c++ {
			for cp := c + 1; cp < q; cp++ {
				if inXp[(c-cp+q)%q] {
					addEdge(id(1, m, c), id(1, m, cp))
				}
			}
		}
	}
	// Cross edges: y = m·x + c.
	for x := 0; x < q; x++ {
		for m := 0; m < q; m++ {
			for c := 0; c < q; c++ {
				y := (m*x + c) % q
				addEdge(id(0, x, y), id(1, m, c))
			}
		}
	}
	// Attach endpoints.
	for _, sw := range ids {
		for e := 0; e < sf.EndpointsPerSwitch; e++ {
			ep := g.AddNode(Endpoint, fmt.Sprintf("sfep%d-%d", sw, e), 0, -1)
			g.AddDuplex(ep, sw, sf.Params.EndpointLinkCap, sf.Params.EndpointLinkLat)
		}
	}
	return g, nil
}

// SwitchDiameter returns the maximum switch-to-switch hop distance —
// the Slim Fly design target is 2.
func SwitchDiameter(g *Graph) int {
	max := 0
	for _, n := range g.Nodes {
		if n.Kind != Switch {
			continue
		}
		dist := g.hopDistances(n.ID)
		for _, m := range g.Nodes {
			if m.Kind != Switch || m.ID == n.ID {
				continue
			}
			if dist[m.ID] > max {
				max = dist[m.ID]
			}
		}
	}
	return max
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

func primitiveRoot(q int) (int, error) {
	for cand := 2; cand < q; cand++ {
		seen := make([]bool, q)
		v, count := 1, 0
		for i := 0; i < q-1; i++ {
			v = v * cand % q
			if !seen[v] {
				seen[v] = true
				count++
			}
		}
		if count == q-1 {
			return cand, nil
		}
	}
	return 0, fmt.Errorf("topology: no primitive root mod %d", q)
}

// Dragonfly builds a canonical dragonfly: groups of a routers in a
// complete graph, h global ports per router, g = a·h+1 groups so every
// pair of groups shares exactly one global cable (the arrangement used
// in Table 3's DF column).
type Dragonfly struct {
	EndpointsPerRouter int // p
	RoutersPerGroup    int // a
	GlobalPerRouter    int // h
	Groups             int // g; must be a·h + 1 for this builder
	Params             FabricParams
}

// Build constructs the dragonfly graph.
func (df Dragonfly) Build() (*Graph, error) {
	p, a, h, gg := df.EndpointsPerRouter, df.RoutersPerGroup, df.GlobalPerRouter, df.Groups
	if gg != a*h+1 {
		return nil, fmt.Errorf("topology: Dragonfly builder requires g = a·h+1 (got g=%d, a·h+1=%d)", gg, a*h+1)
	}
	g := NewGraph()
	routers := make([][]int, gg)
	for gi := 0; gi < gg; gi++ {
		routers[gi] = make([]int, a)
		for r := 0; r < a; r++ {
			routers[gi][r] = g.AddNode(Switch, fmt.Sprintf("df%d-%d", gi, r), 1, -1)
		}
		// Local complete graph.
		for r := 0; r < a; r++ {
			for r2 := r + 1; r2 < a; r2++ {
				g.AddDuplex(routers[gi][r], routers[gi][r2], df.Params.SwitchLinkCap, df.Params.SwitchHopLat)
			}
		}
	}
	// Global links: group gi's slot s (0..a·h-1) reaches group
	// (gi+s+1) mod g; the router owning the slot is s/h.
	for gi := 0; gi < gg; gi++ {
		for s := 0; s < a*h; s++ {
			target := (gi + s + 1) % gg
			if gi >= target {
				continue // the lower-numbered group adds the cable
			}
			backSlot := (gi - target - 1 + 2*gg) % gg
			g.AddDuplex(routers[gi][s/h], routers[target][backSlot/h], df.Params.SwitchLinkCap, df.Params.SwitchHopLat)
		}
	}
	// Endpoints.
	for gi := 0; gi < gg; gi++ {
		for r := 0; r < a; r++ {
			for e := 0; e < p; e++ {
				ep := g.AddNode(Endpoint, fmt.Sprintf("dfep%d-%d-%d", gi, r, e), 0, -1)
				g.AddDuplex(ep, routers[gi][r], df.Params.EndpointLinkCap, df.Params.EndpointLinkLat)
			}
		}
	}
	return g, nil
}
