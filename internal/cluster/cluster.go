// Package cluster models the hardware platform of the paper: H800 nodes
// (8 GPUs behind an NVSwitch, 8×400G IB NICs, one NIC per GPU) attached
// to either the deployed Multi-Plane Fat-Tree (MPFT) or the single-plane
// Multi-Rail Fat-Tree (MRFT) it was evaluated against, plus the GB200
// NVL72 reference point used by the §2.3.2 analysis and the link-layer
// latency model behind Table 5.
package cluster

import (
	"fmt"
	"sync"

	"dsv3/internal/topology"
	"dsv3/internal/units"
)

// H800 platform constants (§4.1, §4.3).
const (
	// GPUsPerNode is fixed by the H800 SXM platform.
	GPUsPerNode = 8
	// NVLinkLine is the H800's regulatory-capped NVLink bandwidth
	// (down from 900 GB/s on GB200-class parts): 400 GB/s bidirectional
	// = 200 GB/s per direction.
	NVLinkLine = 200 * units.GB
	// NVLinkEffective is the achieved NVLink bandwidth the paper quotes
	// ("about 160 GB/s can actually be achieved").
	NVLinkEffective = 160 * units.GB
	// NICLine is the 400 Gbps CX7 line rate.
	NICLine = 50 * units.GB
	// NICEffective is the achieved large-message rate; the paper uses
	// 40 GB/s as a conservative effective figure and DeepEP sustains
	// >40; 47 GB/s matches NCCL's large-message efficiency.
	NICEffective = 47 * units.GB
	// GB200NVL72Bandwidth is the scale-up bandwidth of the GB200 NVL72
	// comparison system (900 GB/s unidirectional across 72 GPUs).
	GB200NVL72Bandwidth = 900 * units.GB
)

// FabricKind selects the scale-out fabric layout.
type FabricKind int

const (
	// MPFT is the deployed eight-plane two-layer fat-tree (Figure 3).
	MPFT FabricKind = iota
	// MRFT is the single-plane multi-rail fat-tree baseline: same leaf
	// layer, but one shared spine group interconnecting all rails.
	MRFT
)

// String implements fmt.Stringer.
func (k FabricKind) String() string {
	if k == MPFT {
		return "MPFT"
	}
	return "MRFT"
}

// Config sizes a cluster build.
type Config struct {
	Nodes          int
	GPUsPerNode    int // = plane count; 8 on H800
	NICsPerLeaf    int
	SpinesPerPlane int
	Fabric         FabricKind

	Net       topology.FabricParams
	NVLinkCap units.BytesPerSecond
	NVLinkLat units.Seconds
}

// H800Config returns the default simulation configuration for n nodes
// (8n GPUs) on the chosen fabric. Leaf/spine counts are scaled-down but
// non-blocking, mirroring the real 1:1 two-layer design.
func H800Config(nodes int, fabric FabricKind) Config {
	return Config{
		Nodes:          nodes,
		GPUsPerNode:    GPUsPerNode,
		NICsPerLeaf:    4,
		SpinesPerPlane: 4,
		Fabric:         fabric,
		Net: topology.FabricParams{
			EndpointLinkCap: NICEffective,
			SwitchLinkCap:   NICEffective,
			EndpointLinkLat: 0.975 * units.Microsecond, // NIC + cable + half-switch
			SwitchHopLat:    0.45 * units.Microsecond,  // IB switch hop
		},
		NVLinkCap: NVLinkEffective,
		NVLinkLat: 0.1 * units.Microsecond,
	}
}

// Cluster is a built cluster graph with the bookkeeping needed to
// construct explicit paths (PXN, receiver-side forwarding, failed-plane
// detours) without re-deriving the topology.
type Cluster struct {
	Cfg Config
	G   *topology.Graph

	// GPU[n][g] is the graph node ID of GPU g on host n (endpoints).
	GPU [][]int

	planes int
	port   [][]port // [node][gpu]
	// leafUp[plane][leafIdx][s] is the uplink to the leaf's s-th spine
	// (plane-local spines for MPFT; all shared spines for MRFT), and
	// leafDown the matching down link into the leaf.
	leafUp, leafDown [][][]int32

	// pathMu guards the lazily built PlanePaths cache, keyed by the
	// (a, i, b, j, plane) coordinates packed into one int. Path
	// construction is pure, so caching makes repeated collective/EP
	// traffic generation on a shared cluster allocation-free after
	// warm-up. A stored set is never written again, so readers may use
	// it while another goroutine adds sets.
	pathMu sync.RWMutex
	paths  map[int]topology.PathSet
}

// port holds the link IDs around GPU g of one host: to and from the
// NVSwitch, to and from NIC g, and NIC g's up and down links to its
// plane-g leaf.
type port struct{ toNVSw, fromNVSw, toNIC, fromNIC, up, down int32 }

// Build constructs the cluster graph.
func Build(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 || cfg.GPUsPerNode <= 0 || cfg.NICsPerLeaf <= 0 || cfg.SpinesPerPlane <= 0 {
		return nil, fmt.Errorf("cluster: all counts must be positive: %+v", cfg)
	}
	planes := cfg.GPUsPerNode
	leafCount := (cfg.Nodes + cfg.NICsPerLeaf - 1) / cfg.NICsPerLeaf

	c := &Cluster{
		Cfg:    cfg,
		G:      topology.NewGraph(),
		planes: planes,
		paths:  make(map[int]topology.PathSet),
	}
	g := c.G

	// Spines. MPFT: SpinesPerPlane per plane, isolated. MRFT: one shared
	// pool of planes*SpinesPerPlane spines; leaf uplink capacity is
	// divided across them so aggregate uplink bandwidth matches MPFT.
	spineIDs := make([][]int, planes) // [plane] -> spine node IDs reachable from that plane's leaves
	uplinkCap := cfg.Net.SwitchLinkCap
	switch cfg.Fabric {
	case MPFT:
		for p := range spineIDs {
			for s := 0; s < cfg.SpinesPerPlane; s++ {
				id := g.AddNode(topology.Switch, fmt.Sprintf("spine-p%d-%d", p, s), 2, p)
				spineIDs[p] = append(spineIDs[p], id)
			}
		}
	case MRFT:
		shared := make([]int, 0, planes*cfg.SpinesPerPlane)
		for s := 0; s < planes*cfg.SpinesPerPlane; s++ {
			shared = append(shared, g.AddNode(topology.Switch, fmt.Sprintf("spine-%d", s), 2, -1))
		}
		for p := range spineIDs {
			spineIDs[p] = shared
		}
		uplinkCap = cfg.Net.SwitchLinkCap / float64(planes)
	default:
		return nil, fmt.Errorf("cluster: unknown fabric kind %d", cfg.Fabric)
	}

	// Leaves.
	leaf := make([][]int, planes) // [plane][leafIdx] node IDs
	c.leafUp, c.leafDown = make([][][]int32, planes), make([][][]int32, planes)
	for p := 0; p < planes; p++ {
		leaf[p] = make([]int, leafCount)
		c.leafUp[p], c.leafDown[p] = make([][]int32, leafCount), make([][]int32, leafCount)
		for l := 0; l < leafCount; l++ {
			id := g.AddNode(topology.Switch, fmt.Sprintf("leaf-p%d-%d", p, l), 1, p)
			leaf[p][l] = id
			for _, sp := range spineIDs[p] {
				up, down := g.AddDuplex(id, sp, uplinkCap, cfg.Net.SwitchHopLat)
				c.leafUp[p][l] = append(c.leafUp[p][l], up)
				c.leafDown[p][l] = append(c.leafDown[p][l], down)
			}
		}
	}

	// Hosts: GPUs, NVSwitch, NICs.
	for n := 0; n < cfg.Nodes; n++ {
		nvsw := g.AddNode(topology.Switch, fmt.Sprintf("nvsw-%d", n), 0, -1)
		gpus := make([]int, cfg.GPUsPerNode)
		ports := make([]port, cfg.GPUsPerNode)
		for i := range ports {
			p := &ports[i]
			gpu := g.AddNode(topology.Endpoint, fmt.Sprintf("gpu-%d-%d", n, i), 0, i)
			gpus[i] = gpu
			p.toNVSw, p.fromNVSw = g.AddDuplex(gpu, nvsw, cfg.NVLinkCap, cfg.NVLinkLat)

			nic := g.AddNode(topology.Switch, fmt.Sprintf("nic-%d-%d", n, i), 0, i)
			// GPU->NIC is PCIe/direct; not the bottleneck, so line rate.
			p.toNIC, p.fromNIC = g.AddDuplex(gpu, nic, cfg.Net.EndpointLinkCap, 0)
			leafIdx := n / cfg.NICsPerLeaf
			p.up, p.down = g.AddDuplex(nic, leaf[i][leafIdx], cfg.Net.EndpointLinkCap, cfg.Net.EndpointLinkLat)
		}
		c.GPU = append(c.GPU, gpus)
		c.port = append(c.port, ports)
	}
	return c, nil
}

// Planes returns the plane count.
func (c *Cluster) Planes() int { return c.planes }

// LeafOf returns the leaf index of a host.
func (c *Cluster) LeafOf(node int) int { return node / c.Cfg.NICsPerLeaf }

// SpineSlots returns how many spines a leaf in the given plane can
// reach (the fan-out available for multipathing).
func (c *Cluster) SpineSlots(plane int) int { return len(c.leafUp[plane][0]) }

// GPUID returns the graph node ID of (host, gpu).
func (c *Cluster) GPUID(node, gpu int) int { return c.GPU[node][gpu] }

// RankOf maps a global rank to (host, gpu) in the usual packed order.
func (c *Cluster) RankOf(rank int) (node, gpu int) {
	return rank / c.Cfg.GPUsPerNode, rank % c.Cfg.GPUsPerNode
}

// NumRanks returns the total GPU count.
func (c *Cluster) NumRanks() int { return c.Cfg.Nodes * c.Cfg.GPUsPerNode }

// PlanePaths returns the paths from GPU (a,i) to GPU (b,j) through
// NIC plane plane: NVLink to the plane's local GPU when i != plane, the
// plane's fabric, then NVLink at the receiver when plane != j. One path
// per spine slot is returned for multipathing; same-leaf pairs have
// exactly one, and same-host pairs take the single NVLink path (empty
// when i == j) whatever the plane. The choice of plane names the route:
// plane = j is NCCL's sender-side PXN, plane = i is DeepEP's
// receiver-side forwarding, and any other surviving plane is the detour
// around a failed one (§5.1.1, Figure 4). The set is cached and shared.
func (c *Cluster) PlanePaths(a, i, b, j, plane int) topology.PathSet {
	if a == b {
		plane = j // intra-host traffic never reaches a plane
	}
	key := (((a*c.planes+i)*c.Cfg.Nodes+b)*c.planes+j)*c.planes + plane
	c.pathMu.RLock()
	p, ok := c.paths[key]
	c.pathMu.RUnlock()
	if ok {
		return p
	}
	p = c.fanOut(a, i, b, j, plane)
	c.pathMu.Lock()
	c.paths[key] = p
	c.pathMu.Unlock()
	return p
}

// fanOut builds one PlanePaths set in a single allocation of exactly
// its links — one path per spine slot, or the single same-leaf or
// NVLink path — since path construction populates the cluster's cache
// and the first big sweep on a fresh cluster builds tens of thousands
// of these sets.
func (c *Cluster) fanOut(a, i, b, j, plane int) topology.PathSet {
	if a == b {
		if i == j {
			return topology.PathSet{}
		}
		return topology.PathSet{Links: []int32{c.port[a][i].toNVSw, c.port[a][j].fromNVSw}, Hops: 2}
	}
	leafA, leafB := c.LeafOf(a), c.LeafOf(b)
	slots, hops := 1, 4 // GPU->NIC, NIC->leaf, leaf->NIC, NIC->GPU
	if leafA != leafB {
		slots, hops = c.SpineSlots(plane), hops+2 // leaf->spine->leaf
	}
	if i != plane {
		hops += 2
	}
	if plane != j {
		hops += 2
	}
	src, dst := &c.port[a][plane], &c.port[b][plane]
	p := make([]int32, 0, slots*hops)
	for s := 0; s < slots; s++ {
		if i != plane {
			p = append(p, c.port[a][i].toNVSw, src.fromNVSw)
		}
		p = append(p, src.toNIC, src.up)
		if leafA != leafB {
			p = append(p, c.leafUp[plane][leafA][s], c.leafDown[plane][leafB][s])
		}
		p = append(p, dst.down, dst.fromNIC)
		if plane != j {
			p = append(p, dst.toNVSw, c.port[b][j].fromNVSw)
		}
	}
	return topology.PathSet{Links: p, Hops: int32(hops)}
}
