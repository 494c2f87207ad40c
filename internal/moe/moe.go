// Package moe implements the DeepSeekMoE router: sigmoid expert
// affinities, the group-limited ("node-limited") top-k selection of
// §4.3 with an optional per-expert selection bias, and expert placement
// across an EP group. The routing statistics this package produces (how
// many distinct nodes a token touches) drive the DeepEP communication
// model and the §4.3 traffic-deduplication experiment.
package moe

import (
	"fmt"
	"math"
	"math/rand"

	"dsv3/internal/parallel"
)

// Gate is the expert router configuration.
type Gate struct {
	Experts int // routed experts (256 in V3)
	TopK    int // routed experts activated per token (8 in V3)
	// Groups partitions experts into contiguous groups (8 in V3, one
	// per node in the reference deployment).
	Groups int
	// GroupTopK limits each token to this many groups (4 in V3).
	// Zero disables the limit (the ablation baseline).
	GroupTopK int
}

// V3Gate returns DeepSeek-V3's gate: 256 experts, top-8, 8 groups,
// at most 4 groups per token.
func V3Gate() Gate { return Gate{Experts: 256, TopK: 8, Groups: 8, GroupTopK: 4} }

// Validate checks the configuration is routable.
func (g Gate) Validate() error {
	if g.Experts <= 0 || g.TopK <= 0 || g.TopK > g.Experts {
		return fmt.Errorf("moe: bad gate sizes %+v", g)
	}
	if g.Groups > 0 {
		if g.Experts%g.Groups != 0 {
			return fmt.Errorf("moe: experts (%d) must divide into groups (%d)", g.Experts, g.Groups)
		}
		if g.GroupTopK > 0 && g.TopK > g.GroupTopK*(g.Experts/g.Groups) {
			return fmt.Errorf("moe: top-%d cannot fit in %d groups of %d", g.TopK, g.GroupTopK, g.Experts/g.Groups)
		}
	}
	return nil
}

// Router carries the reusable scratch of the routing computation so the
// per-token hot path (DeepEP traffic generation, Monte-Carlo routing
// statistics) runs without allocating. A Router is NOT safe for
// concurrent use; parallel runners hold one per worker task.
type Router struct {
	g           Gate
	groupScore  []float64 // per-group top-2 sum
	groupSecond []float64 // per-group second-best biased score
	groupTaken  []bool    // groups already selected
	topScore    []float64 // running top-k scores, descending; len TopK
	out         []int     // running top-k experts, then the result; len TopK
}

// NewRouter allocates a Router for the gate. The gate should be valid;
// Route panics on malformed inputs.
func NewRouter(g Gate) *Router {
	r := &Router{g: g, topScore: make([]float64, g.TopK), out: make([]int, g.TopK)}
	if g.Groups > 0 {
		r.groupScore = make([]float64, g.Groups)
		r.groupSecond = make([]float64, g.Groups)
		r.groupTaken = make([]bool, g.Groups)
	}
	return r
}

// Route selects the top-k experts for one token given its per-expert
// affinity scores (higher is better; V3 uses sigmoid affinities).
// bias, if non-nil, is added to scores for *selection only* — the
// aux-loss-free balancing mechanism. The group limit is applied first:
// groups are ranked by the sum of their top-2 biased scores, the best
// GroupTopK groups survive, then the global top-k is taken inside them.
//
// Route does not allocate: the returned slice (ascending expert IDs)
// aliases the Router's internal buffer and is valid until the next call.
func (r *Router) Route(scores, bias []float64) []int {
	g := r.g
	if len(scores) != g.Experts {
		panic(fmt.Sprintf("moe: got %d scores for %d experts", len(scores), g.Experts))
	}

	grouped := g.Groups > 0 && g.GroupTopK > 0 && g.GroupTopK < g.Groups
	floor := math.Inf(-1)
	n := 0
	if grouped {
		perGroup := g.Experts / g.Groups
		for grp := 0; grp < g.Groups; grp++ {
			// Group score = sum of the top-2 member affinities (V3 rule).
			best, second := math.Inf(-1), math.Inf(-1)
			members := scores[grp*perGroup : (grp+1)*perGroup]
			if bias == nil {
				for _, s := range members {
					if s > best {
						best, second = s, best
					} else if s > second {
						second = s
					}
				}
			} else {
				gb := bias[grp*perGroup : (grp+1)*perGroup]
				for m, s := range members {
					s += gb[m]
					if s > best {
						best, second = s, best
					} else if s > second {
						second = s
					}
				}
			}
			r.groupScore[grp] = best + second
			r.groupSecond[grp] = second
			r.groupTaken[grp] = false
		}
		// Pick the top GroupTopK groups by (score desc, index asc):
		// repeated argmax with strict > keeps the lowest index on ties,
		// matching a stable descending sort. The best < 0 clause accepts
		// the first unpicked group even when every score is -Inf (one
		// expert per group makes the top-2 sum -Inf across the board).
		floor = math.Inf(1)
		for pick := 0; pick < g.GroupTopK; pick++ {
			best, bestScore := -1, math.Inf(-1)
			for grp := 0; grp < g.Groups; grp++ {
				if !r.groupTaken[grp] && (best < 0 || r.groupScore[grp] > bestScore) {
					best, bestScore = grp, r.groupScore[grp]
				}
			}
			r.groupTaken[best] = true
			floor = min(floor, r.groupSecond[best])
		}
		// The chosen groups' best and second-best experts are
		// 2·GroupTopK distinct experts scoring at least floor. When that
		// is at least TopK of them, an expert scoring below floor cannot
		// make the top-k, so the scan may skip it. A NaN score breaks the
		// order this argument rests on; the scan then reports it and the
		// unfiltered scan runs instead.
		if 2*g.GroupTopK < g.TopK {
			floor = math.Inf(-1)
		}
		n = r.scanGroups(scores, bias, perGroup, floor)
		if n < 0 {
			n = r.scanGroups(scores, bias, perGroup, math.Inf(-1))
		}
	} else {
		n = r.scan(scores, bias, 0, g.Experts, 0, math.Inf(-1))
	}
	if n < g.TopK {
		panic(fmt.Sprintf("moe: top-%d does not fit the allowed groups of %+v", g.TopK, g))
	}
	// Return ascending expert IDs (insertion sort; TopK is small).
	sortSmall(r.out)
	return r.out
}

// scanGroups runs scan over the selected groups in ascending order and
// returns the number of experts kept, or -1 as scan does.
func (r *Router) scanGroups(scores, bias []float64, perGroup int, floor float64) int {
	n := 0
	for grp, ok := range r.groupTaken {
		if ok {
			if n = r.scan(scores, bias, grp*perGroup, (grp+1)*perGroup, n, floor); n < 0 {
				return -1
			}
		}
	}
	return n
}

// scan feeds experts lo..hi-1 into the running top-k, whose first n
// entries are filled, and returns the new fill. Candidates arrive in
// ascending expert index; a candidate is inserted strictly after every
// kept entry with an equal-or-higher score, so the buffer realizes the
// (score desc, index asc) total order a stable sort would produce.
// Candidates scoring below floor are skipped; with a floor above -Inf,
// scan returns -1 on meeting a NaN score, for which skipping is not
// exact.
func (r *Router) scan(scores, bias []float64, lo, hi, n int, floor float64) int {
	top, out := r.topScore, r.out
	k := len(top)
	filtered := floor > math.Inf(-1)
	for e := lo; e < hi; e++ {
		s := scores[e]
		if bias != nil {
			s += bias[e]
		}
		if s < floor {
			continue
		}
		if n == k {
			if s <= top[k-1] {
				continue
			}
			n--
		}
		if filtered && s != s {
			return -1
		}
		pos := n
		for ; pos > 0 && top[pos-1] < s; pos-- {
			top[pos], out[pos] = top[pos-1], out[pos-1]
		}
		top[pos], out[pos] = s, e
		n++
	}
	return n
}

// sortSmall is an allocation-free insertion sort for the tiny result
// slices the router produces (sort.Ints forces an interface escape).
func sortSmall(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// RandomScoresInto fills dst with i.i.d. affinities in (0,1), drawing
// exactly Experts variates; dst must have length Experts.
func (g Gate) RandomScoresInto(dst []float64, rng *rand.Rand) {
	if len(dst) != g.Experts {
		panic(fmt.Sprintf("moe: scores buffer %d for %d experts", len(dst), g.Experts))
	}
	for i := range dst {
		dst[i] = rng.Float64()
	}
}

// Placement maps experts onto an EP group: Nodes hosts of GPUsPerNode
// GPUs, experts distributed contiguously (experts-per-GPU =
// Experts / (Nodes·GPUsPerNode)).
type Placement struct {
	Experts     int
	Nodes       int
	GPUsPerNode int
}

// Validate checks divisibility.
func (p Placement) Validate() error {
	total := p.Nodes * p.GPUsPerNode
	if total <= 0 || p.Experts%total != 0 {
		return fmt.Errorf("moe: %d experts cannot spread evenly over %d GPUs", p.Experts, total)
	}
	return nil
}

// PerGPU returns experts per GPU.
func (p Placement) PerGPU() int { return p.Experts / (p.Nodes * p.GPUsPerNode) }

// GPUOf returns the (node, gpu) hosting an expert.
func (p Placement) GPUOf(expert int) (node, gpu int) {
	g := expert / p.PerGPU()
	return g / p.GPUsPerNode, g % p.GPUsPerNode
}

// Dispatcher computes the dedup structure of routed tokens without
// allocating: node and GPU target sets live in reusable mark arrays.
// Results alias internal buffers and are valid until the next Dispatch
// call. Not safe for concurrent use — hold one per worker task.
type Dispatcher struct {
	p        Placement
	nodeMark []bool
	gpuMark  []bool // [node*GPUsPerNode+gpu]
	nodes    []int  // deduplicated target nodes, ascending
	fanout   int
}

// NewDispatcher allocates a Dispatcher for a validated placement.
func NewDispatcher(p Placement) *Dispatcher {
	return &Dispatcher{
		p:        p,
		nodeMark: make([]bool, p.Nodes),
		gpuMark:  make([]bool, p.Nodes*p.GPUsPerNode),
		nodes:    make([]int, 0, p.Nodes),
	}
}

// Dispatch computes the dedup structure of one routed token. Target
// nodes are returned ascending via Nodes; per-node GPU membership is
// queried with HasGPU.
func (d *Dispatcher) Dispatch(experts []int) {
	for _, n := range d.nodes {
		d.nodeMark[n] = false
		base := n * d.p.GPUsPerNode
		for g := 0; g < d.p.GPUsPerNode; g++ {
			d.gpuMark[base+g] = false
		}
	}
	d.nodes = d.nodes[:0]
	d.fanout = 0
	for _, e := range experts {
		n, g := d.p.GPUOf(e)
		if !d.nodeMark[n] {
			d.nodeMark[n] = true
			// Insertion into ascending order (at most TopK nodes).
			d.nodes = append(d.nodes, n)
			for i := len(d.nodes) - 1; i > 0 && d.nodes[i-1] > d.nodes[i]; i-- {
				d.nodes[i-1], d.nodes[i] = d.nodes[i], d.nodes[i-1]
			}
		}
		if idx := n*d.p.GPUsPerNode + g; !d.gpuMark[idx] {
			d.gpuMark[idx] = true
			d.fanout++
		}
	}
}

// Nodes returns the deduplicated target nodes of the last Dispatch,
// ascending. The slice aliases internal state.
func (d *Dispatcher) Nodes() []int { return d.nodes }

// HasGPU reports whether the last Dispatch targets (node, gpu).
func (d *Dispatcher) HasGPU(node, gpu int) bool {
	return d.gpuMark[node*d.p.GPUsPerNode+gpu]
}

// GPUFanout returns the number of distinct (node, gpu) targets of the
// last Dispatch.
func (d *Dispatcher) GPUFanout() int { return d.fanout }

// RoutingStats aggregates dispatch structure over many tokens.
type RoutingStats struct {
	Tokens int
	// MeanNodes is E[M]: distinct target nodes per token (source node
	// included when targeted) — the paper's deduplicated IB cost factor.
	MeanNodes float64
	// MeanRemoteNodes excludes the source node: actual IB transfers.
	MeanRemoteNodes float64
	// MaxNodes is the worst-case M observed.
	MaxNodes int
	// MeanGPUFanout is the mean number of distinct (node,gpu) targets.
	MeanGPUFanout float64
	// ExpertLoad[e] counts how many tokens selected expert e.
	ExpertLoad []int
}

// CollectStats routes `tokens` synthetic tokens from the given source
// node and aggregates dispatch statistics. bias may be nil. The caller
// owns the RNG stream, so this path is inherently serial; the
// experiment runners use CollectStatsSeeded, which chunks the trials
// over the parallel engine.
func CollectStats(g Gate, p Placement, tokens, srcNode int, bias []float64, rng *rand.Rand) RoutingStats {
	acc := newStatsAccumulator(g, p, srcNode, bias)
	acc.routeTokens(tokens, rng)
	return acc.finish(tokens)
}

// statsChunkTokens is the Monte-Carlo granularity of
// CollectStatsSeeded: one RNG stream (and one scratch Router +
// Dispatcher) per 256-token chunk.
const statsChunkTokens = 256

// CollectStatsSeeded is CollectStats with per-chunk seed derivation:
// trials run in fixed 256-token chunks, each on its own RNG stream
// derived from (seed, chunk), fanned out over the parallel worker
// pool. Counters are integers, so the chunk merge is exact and the
// result is bit-identical for every worker count — including 1.
func CollectStatsSeeded(g Gate, p Placement, tokens, srcNode int, bias []float64, seed int64) RoutingStats {
	chunks := (tokens + statsChunkTokens - 1) / statsChunkTokens
	parts, _ := parallel.Map(chunks, func(ci int) (*statsAccumulator, error) {
		n := statsChunkTokens
		if rem := tokens - ci*statsChunkTokens; rem < n {
			n = rem
		}
		acc := newStatsAccumulator(g, p, srcNode, bias)
		acc.routeTokens(n, parallel.TaskRand(seed, ci))
		return acc, nil
	})
	total := newStatsAccumulator(g, p, srcNode, bias)
	for _, part := range parts {
		total.merge(part)
	}
	return total.finish(tokens)
}

// statsAccumulator holds integer routing counters (exact under any
// merge order) plus the per-task routing scratch.
type statsAccumulator struct {
	router  *Router
	disp    *Dispatcher
	scores  []float64
	bias    []float64
	srcNode int

	nodes, remote, fanout int
	maxNodes              int
	load                  []int
}

func newStatsAccumulator(g Gate, p Placement, srcNode int, bias []float64) *statsAccumulator {
	return &statsAccumulator{
		router:  NewRouter(g),
		disp:    NewDispatcher(p),
		scores:  make([]float64, g.Experts),
		bias:    bias,
		srcNode: srcNode,
		load:    make([]int, g.Experts),
	}
}

func (a *statsAccumulator) routeTokens(n int, rng *rand.Rand) {
	for t := 0; t < n; t++ {
		a.router.g.RandomScoresInto(a.scores, rng)
		experts := a.router.Route(a.scores, a.bias)
		a.disp.Dispatch(experts)
		targets := a.disp.Nodes()
		a.nodes += len(targets)
		if len(targets) > a.maxNodes {
			a.maxNodes = len(targets)
		}
		for _, node := range targets {
			if node != a.srcNode {
				a.remote++
			}
		}
		a.fanout += a.disp.GPUFanout()
		for _, e := range experts {
			a.load[e]++
		}
	}
}

func (a *statsAccumulator) merge(b *statsAccumulator) {
	a.nodes += b.nodes
	a.remote += b.remote
	a.fanout += b.fanout
	if b.maxNodes > a.maxNodes {
		a.maxNodes = b.maxNodes
	}
	for e, c := range b.load {
		a.load[e] += c
	}
}

func (a *statsAccumulator) finish(tokens int) RoutingStats {
	n := float64(tokens)
	return RoutingStats{
		Tokens:          tokens,
		MeanNodes:       float64(a.nodes) / n,
		MeanRemoteNodes: float64(a.remote) / n,
		MaxNodes:        a.maxNodes,
		MeanGPUFanout:   float64(a.fanout) / n,
		ExpertLoad:      a.load,
	}
}
