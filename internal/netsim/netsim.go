// Package netsim is a flow-level discrete-event network simulator: the
// substitute for the real 2,048-GPU cluster the paper measured on.
//
// Traffic is modelled as fluid flows over the directed link graph from
// internal/topology. At any instant, active flows receive max-min fair
// rates (progressive filling — the equilibrium a congestion-controlled
// fabric approximates); the simulator advances directly from one flow
// completion to the next, recomputing rates at each event. A flow may
// be split over several equal-cost paths ("subflows") to model adaptive
// routing / packet spraying; single-path flows model ECMP-hashed or
// statically routed traffic.
//
// Small-message behaviour is captured by a per-flow startup latency
// (path propagation + NIC/software overheads), which the latency
// experiments (Table 5, Figure 6) are built on.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"dsv3/internal/topology"
	"dsv3/internal/units"
)

// Flow is one logical transfer.
type Flow struct {
	// Src and Dst are node IDs; informational (paths define routing).
	Src, Dst int
	// Bytes is the payload size. Zero-byte flows complete at their
	// startup latency.
	Bytes units.Bytes
	// Paths holds one or more equal-hop link-ID paths, read in place.
	// With several paths the bytes are split evenly (fluid
	// packet-spraying). A set without hops is a loopback that completes
	// at the startup latency.
	Paths topology.PathSet
	// StartupLatency is added to the flow's completion time: path
	// propagation plus endpoint software/NIC overheads.
	StartupLatency units.Seconds
	// StartTime lets staged collectives inject flows later than t=0.
	StartTime units.Seconds
	// RateCap, when positive, bounds the flow's aggregate rate
	// regardless of link headroom — modelling per-QP / per-peer
	// pipelining limits of RDMA endpoints. With multiple paths the cap
	// is split evenly across subflows.
	RateCap units.BytesPerSecond
}

// Result summarizes one simulation run.
type Result struct {
	// Makespan is the completion time of the last flow.
	Makespan units.Seconds
	// FlowFinish holds each flow's completion time, indexed like the
	// input slice.
	FlowFinish []units.Seconds
	// MaxLinkBytes is the largest per-link byte total — useful for
	// hotspot analysis in the routing experiments.
	MaxLinkBytes units.Bytes
}

// subflow is one path of one flow: 32 bytes. Every index the simulator
// stores — flow and subflow numbers, path offsets, link IDs — is an
// int32, which halves the per-link lists and keeps the 128-GPU sprayed
// all-to-all's ~397K subflows and ~3.1M path entries small; Simulate
// panics on inputs too large for that.
type subflow struct {
	remaining units.Bytes
	rate      float64
	cap       float64 // per-subflow rate cap; 0 = uncapped
	flow      int32
	// pathStart is where the subflow's path begins in its flow's
	// Paths.Links: the simulator reads links where the path set keeps
	// them (see path), so a run holds no copy of its paths.
	pathStart int32
}

// path returns subflow si's link IDs, read in place from its flow's
// path set.
func path(subs []subflow, flows []Flow, si int32) []int32 {
	sub := &subs[si]
	ps := &flows[sub.flow].Paths
	return ps.Links[sub.pathStart : sub.pathStart+ps.Hops]
}

// checkInt32 panics when n, a count that bounds an index the simulator
// stores as int32, does not fit in one.
func checkInt32(what string, n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("netsim: %d %s exceed the int32 index range", n, what))
	}
}

// Simulate runs the fluid simulation to completion and returns per-flow
// finish times. It panics on a link ID outside the graph (a programming
// error in the collective layer; topology.Graph.NewPathSet rejects one
// where a set is built). Each call allocates fresh scratch; hot loops
// that simulate many flow sets should hold a Sim and call its Simulate
// method instead.
func Simulate(g *topology.Graph, flows []Flow) Result {
	return NewSim().Simulate(g, flows)
}

// Sim is a reusable simulation context: it owns every scratch buffer
// the fluid simulation needs (subflow table, water-filling state,
// admission order, per-flow finish times), so repeated runs — the
// all-to-all rounds of a collective sweep, the probes of a capacity
// search — are allocation-free at steady state. A Sim is not safe for
// concurrent use; sweeps thread one Sim per worker through
// parallel.MapScratch. Results are byte-identical to the package-level
// Simulate function: scratch reuse never changes the arithmetic, only
// where the buffers live.
type Sim struct {
	subs          []subflow
	flowRemaining []int // unfinished subflows per flow
	flowNetDone   []units.Seconds
	linkBytes     []units.Bytes
	bySID         []int32
	active        []int32
	flowFinish    []units.Seconds
	pf            filler
}

// NewSim returns an empty simulation context. Buffers grow to the
// high-water mark of the flow sets it simulates and are reused across
// calls.
func NewSim() *Sim { return &Sim{} }

// grow returns s resized to n entries, all zero-valued, reusing the
// backing array when it is large enough.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Simulate runs the fluid simulation on the context's reused scratch.
// The returned Result's FlowFinish slice aliases a buffer owned by the
// Sim: it is valid until the next Simulate call on the same Sim.
// Callers that need the finish times beyond that must copy them.
func (s *Sim) Simulate(g *topology.Graph, flows []Flow) Result {
	s.flowFinish = grow(s.flowFinish, len(flows))
	res := Result{FlowFinish: s.flowFinish}
	s.linkBytes = grow(s.linkBytes, len(g.Links))
	linkBytes := s.linkBytes

	// Explode flows into subflows. Counting subflows, path entries and
	// rate-capped subflows first sizes the reused tables exactly, so even
	// the cold first call allocates once instead of append-doubling; the
	// counts also bound every index the int32 buffers hold (so negative
	// and NaN sizes, which make subflows too, are counted).
	nsubs, npath, ncapped := 0, 0, 0
	for _, f := range flows {
		if f.Paths.Hops > 0 && f.Bytes != 0 {
			nsubs += f.Paths.Len()
			if f.RateCap > 0 {
				ncapped += f.Paths.Len()
			}
			npath += len(f.Paths.Links)
		}
	}
	checkInt32("flows", len(flows))
	checkInt32("subflows", nsubs)
	checkInt32("path entries plus capped subflows", npath+ncapped)
	checkInt32("links plus capped subflows", len(g.Links)+ncapped)
	subs := slices.Grow(s.subs[:0], nsubs)
	s.flowRemaining = grow(s.flowRemaining, len(flows))
	flowRemaining := s.flowRemaining
	s.flowNetDone = grow(s.flowNetDone, len(flows))
	flowNetDone := s.flowNetDone
	for fi, f := range flows {
		if f.StartTime > flowNetDone[fi] {
			flowNetDone[fi] = f.StartTime
		}
		n := f.Paths.Len()
		share := f.Bytes / float64(n)
		if f.Paths.Hops == 0 || share == 0 {
			continue // loopback or zero bytes: done at StartTime
		}
		var subCap float64
		if f.RateCap > 0 {
			subCap = f.RateCap / float64(n)
		}
		for k := 0; k < n; k++ {
			for _, lid := range f.Paths.Path(k) {
				linkBytes[lid] += share
			}
			subs = append(subs, subflow{flow: int32(fi), pathStart: int32(k) * f.Paths.Hops, remaining: share, cap: subCap})
		}
		flowRemaining[fi] = n
	}
	s.subs = subs
	nsubs = len(subs)
	for _, b := range linkBytes {
		if b > res.MaxLinkBytes {
			res.MaxLinkBytes = b
		}
	}

	// Group subflows by start time. Most collectives launch everything
	// at t=0, in which case creation order is already sorted.
	s.bySID = slices.Grow(s.bySID[:0], nsubs)[:nsubs]
	bySID := s.bySID
	staged := false
	for i := range bySID {
		bySID[i] = int32(i)
		if flows[subs[i].flow].StartTime != 0 {
			staged = true
		}
	}
	if staged {
		sort.SliceStable(bySID, func(a, b int) bool {
			return flows[subs[bySID[a]].flow].StartTime < flows[subs[bySID[b]].flow].StartTime
		})
	}

	now := 0.0
	nextStart := 0
	active := slices.Grow(s.active[:0], nsubs)
	pf := &s.pf
	pf.reset(g, subs, flows, ncapped)

	for {
		// Admit subflows whose start time has arrived.
		for nextStart < len(bySID) {
			si := bySID[nextStart]
			if flows[subs[si].flow].StartTime > now+1e-15 {
				break
			}
			active = append(active, si)
			nextStart++
		}
		if len(active) == 0 {
			if nextStart < len(bySID) {
				now = flows[subs[bySID[nextStart]].flow].StartTime
				continue
			}
			break
		}

		pf.assign(subs, active, flows)

		// Advance to the next event: earliest subflow completion or the
		// next admission.
		dt := math.Inf(1)
		for _, si := range active {
			s := &subs[si]
			if s.rate > 0 {
				if t := s.remaining / s.rate; t < dt {
					dt = t
				}
			}
		}
		if nextStart < len(bySID) {
			if t := flows[subs[bySID[nextStart]].flow].StartTime - now; t < dt {
				dt = t
			}
		}
		if math.IsInf(dt, 1) {
			panic("netsim: deadlock — active subflows with zero rate")
		}
		if dt < 0 {
			dt = 0
		}

		now += dt
		// Drain and retire completed subflows.
		stillActive := active[:0]
		for _, si := range active {
			s := &subs[si]
			s.remaining -= s.rate * dt
			if s.remaining <= 1e-9 {
				fi := s.flow
				flowRemaining[fi]--
				if flowRemaining[fi] == 0 && now > flowNetDone[fi] {
					flowNetDone[fi] = now
				}
			} else {
				stillActive = append(stillActive, si)
			}
		}
		active = stillActive
	}
	s.active = active[:0]

	for fi, f := range flows {
		res.FlowFinish[fi] = flowNetDone[fi] + f.StartupLatency
		if res.FlowFinish[fi] > res.Makespan {
			res.Makespan = res.FlowFinish[fi]
		}
	}
	if work != nil {
		work.runs.Add(1)
	}
	return res
}

// work, when non-nil, accumulates the work counts of every run. Only
// tests set it (export_test.go); otherwise it costs a nil check per run
// and per epoch.
var work *workCounts

// workCounts are the simulator's deterministic work counters: runs,
// rate-assignment epochs, water-filling levels, and path entries the
// epochs put on per-link lists.
type workCounts struct{ runs, epochs, levels, visits atomic.Int64 }

// filler holds the scratch buffers of progressive filling so the event
// loop does not reallocate per epoch — and, embedded in a Sim, not per
// run either. Rate-capped subflows are modelled by a private virtual
// link (IDs beyond the real link range) with the cap as its capacity.
type filler struct {
	g        *topology.Graph
	residual []float64
	count    []int32
	touched  []int32
	frozen   []bool
	vlink    []int32 // subflow -> virtual link ID this epoch (-1 none)

	// Per-link subflow lists in CSR form over one flat arena: link lid's
	// list lives in entries[listStart[lid] : next[lid]], where next is
	// the write cursor the epoch rebuild advances (rewound to listStart
	// when a link is first touched in an epoch). reset sizes the arena
	// from the run's total path footprint (an upper bound on any epoch's
	// lists), so epoch rebuilds write straight into place — no per-link
	// slice growth, ever.
	listStart []int32
	next      []int32
	entries   []int32
}

// reset prepares the filler for one simulation run, growing (and
// re-zeroing) the link-indexed scratch as needed. assign relies on
// count being all-zero between epochs; reset re-establishes that
// invariant explicitly so an abandoned run (panic) cannot poison the
// next one. Virtual links exist only for rate-capped subflows, of which
// there are at most capped: sizing the link-indexed scratch to
// links+capped (not links+len(subs)) keeps the allocation proportional
// to the real problem — collectives typically cap nothing.
func (pf *filler) reset(g *topology.Graph, subs []subflow, flows []Flow, capped int) {
	pf.g = g
	nLinks := len(g.Links)
	total := nLinks + capped
	pf.residual = grow(pf.residual, total)
	pf.count = grow(pf.count, total)
	pf.frozen = grow(pf.frozen, len(subs))
	pf.vlink = grow(pf.vlink, len(subs))

	// Lay out the CSR arena: count every subflow traversal per link —
	// an upper bound on any single epoch's list, since an epoch's active
	// set is a subset of all subflows — then prefix-sum into start
	// offsets. Virtual links get one slot each (a virtual link carries
	// exactly its own capped subflow).
	pf.listStart = grow(pf.listStart, total)
	pf.next = slices.Grow(pf.next[:0], total)[:total] // stale cursors fine: rewound on touch
	counts := pf.listStart
	for si := range subs {
		for _, lid := range path(subs, flows, int32(si)) {
			counts[lid]++
		}
	}
	var sum int32
	for lid := 0; lid < nLinks; lid++ {
		c := counts[lid]
		counts[lid] = sum
		sum += c
	}
	for vid := nLinks; vid < total; vid++ {
		counts[vid] = sum
		sum++
	}
	pf.entries = slices.Grow(pf.entries[:0], int(sum))[:sum]
}

// assign computes the (unique) max-min fair allocation for the active
// subflows. Each water-filling level freezes its bottleneck links in
// one sweep over the touched links in first-touch order (the order the
// active scan first reaches them), which fixes the floating-point order
// of the residual updates.
func (pf *filler) assign(subs []subflow, active []int32, flows []Flow) {
	nextVirtual := int32(len(pf.g.Links))
	pf.touched = pf.touched[:0]
	visits := 0
	for _, si := range active {
		sub := &subs[si]
		sub.rate = 0
		pf.frozen[si] = false
		pf.vlink[si] = -1
		p := path(subs, flows, si)
		visits += len(p)
		for _, lid := range p {
			if pf.count[lid] == 0 {
				pf.residual[lid] = pf.g.Links[lid].Capacity
				pf.next[lid] = pf.listStart[lid]
				pf.touched = append(pf.touched, lid)
			}
			pf.count[lid]++
			pf.entries[pf.next[lid]] = si
			pf.next[lid]++
		}
		if sub.cap > 0 {
			vid := nextVirtual
			nextVirtual++
			pf.residual[vid] = sub.cap
			pf.count[vid] = 1
			start := pf.listStart[vid]
			pf.entries[start] = si
			pf.next[vid] = start + 1
			pf.touched = append(pf.touched, vid)
			pf.vlink[si] = vid
		}
	}

	undetermined := len(active)
	levels := 0
	for undetermined > 0 {
		levels++
		// Water-filling level: the minimum per-subflow share over all
		// still-loaded links.
		minShare := math.Inf(1)
		for _, lid := range pf.touched {
			if pf.count[lid] <= 0 {
				continue
			}
			if share := pf.residual[lid] / float64(pf.count[lid]); share < minShare {
				minShare = share
			}
		}
		if math.IsInf(minShare, 1) {
			panic("netsim: progressive filling found no bottleneck")
		}
		rate := minShare
		if rate < 0 {
			rate = 0
		}
		// Freeze every link sitting at the level in one batch. Removing
		// a subflow at exactly the bottleneck rate keeps a same-level
		// link at that level (residual −= r, count −= 1 preserves
		// residual/count = r), so batch-freezing equals the classic
		// one-link-per-iteration filling while doing O(levels) instead
		// of O(links) selection sweeps.
		for _, lid := range pf.touched {
			if pf.count[lid] <= 0 || pf.residual[lid]/float64(pf.count[lid]) != minShare {
				continue
			}
			for _, si := range pf.entries[pf.listStart[lid]:pf.next[lid]] {
				if pf.frozen[si] {
					continue
				}
				pf.frozen[si] = true
				subs[si].rate = rate
				undetermined--
				for _, plid := range path(subs, flows, si) {
					pf.residual[plid] -= rate
					pf.count[plid]--
				}
				if v := pf.vlink[si]; v >= 0 {
					pf.residual[v] -= rate
					pf.count[v]--
				}
			}
		}
	}
	// Reset counters for the next epoch.
	for _, lid := range pf.touched {
		pf.count[lid] = 0
	}
	if w := work; w != nil {
		w.epochs.Add(1)
		w.levels.Add(int64(levels))
		w.visits.Add(int64(visits))
	}
}
