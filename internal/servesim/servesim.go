// Package servesim is a deterministic discrete-event simulator of an
// LLM serving cluster under request-level traffic — the paper's
// inference analyses (§2.1.2 KV pressure, §2.3.2 EP decode ceiling,
// §2.3.3 MTP) lifted from steady-state formulas to TTFT/TPOT/goodput
// under load, in the spirit of the DeepSeek-V3 production deployment:
// disaggregated prefill and decode instances, continuous batching, and
// a paged MLA-sized KV cache with admission and preemption.
//
// Determinism contract: a (Config, Workload) pair with a fixed Seed
// produces a byte-identical Report (and JSON encoding) on every run.
// The event loop is single-threaded, events are ordered by (time,
// sequence), every scheduling decision is a pure function of simulator
// state, and all randomness flows from parallel.NewRand streams.
// Sweeps fan the per-point engines out over internal/parallel with
// seeds derived per index, so parallel sweep execution is invisible —
// the same guarantee the experiment suite asserts byte-for-byte.
package servesim

import (
	"fmt"
	"math/rand"

	"dsv3/internal/obs"
	"dsv3/internal/parallel"
	"dsv3/internal/units"
)

// SLO is the latency service-level objective a request must meet to
// count toward goodput.
type SLO struct {
	TTFT units.Seconds // time to first token
	TPOT units.Seconds // mean time per output token
}

// DefaultSLO returns the evaluation SLO: first token within 1 s, then
// at least 50 tokens/s sustained.
func DefaultSLO() SLO { return SLO{TTFT: 1.0, TPOT: 20 * units.Millisecond} }

// Event kinds, processed in (time, seq) order.
type eventKind int

const (
	// evArrival is never scheduled: arrivals are merged into the loop
	// from the arrival-sorted request arena (see Engine.Run).
	evArrival eventKind = iota
	evPrefillDone
	evDecodeLand
	evStepDone
	// evFaultPlanned applies Config.Faults.Events[inst]; evFaultRandom
	// fires one MTBF-drawn crash and re-arms itself; evFaultRecover
	// repairs an MTBF-crashed instance after its MTTR dwell (inst >= 0
	// is a decode index, inst < 0 encodes prefill index -(inst+1)).
	evFaultPlanned
	evFaultRandom
	evFaultRecover
	// evRetry re-enters an orphaned request into prefill dispatch after
	// its backoff.
	evRetry
	// evReloadDone lands an offloaded request's KV back in HBM: the
	// request joins its instance's batch (tiered hierarchy only).
	evReloadDone
	// evHedge fires a request's hedge timer (hazard.go).
	evHedge
)

type event struct {
	at   units.Seconds
	seq  int
	kind eventKind
	inst int // prefill instance (evPrefillDone), decode instance (evDecodeLand, evStepDone)
	// epoch pins evPrefillDone/evStepDone to the owning instance's
	// incarnation: a crash bumps the instance epoch, so events the dead
	// incarnation scheduled are recognized as stale and dropped.
	epoch int
	req   *reqState
}

// eventHeap is a slice-backed binary min-heap of event values ordered
// by (at, seq): no interface boxing on push, no type assertion on pop,
// no per-event allocation. seq is unique, so the order is strict and
// total — the pop sequence (and therefore the whole simulation) is
// identical to any other heap implementation over the same comparator.
// Both operations move a hole instead of swapping: push carries it up
// from the new leaf; pop walks it from the root down to a leaf along
// the smaller child, one compare per level, then carries the last
// element up from there (the bottom-up variant — the last element
// nearly always belongs near the bottom, so this takes about half the
// compares of sifting it down from the root).
type eventHeap []event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// up places ev in the heap by moving the hole at i toward the root
// past every parent ev orders before.
func (h eventHeap) up(i int, ev event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the req pointer so the arena can be collected
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && eventLess(&s[c+1], &s[c]) {
			c++
		}
		s[i] = s[c]
		i = c
	}
	s.up(i, last)
	return top
}

// at returns the earliest pending event time; only valid when the heap
// is non-empty.
func (h eventHeap) at() units.Seconds { return h[0].at }

func (h *eventHeap) reset() {
	clear(*h)
	*h = (*h)[:0]
}

// reqState tracks one request through the pipeline in 128 bytes, the
// embedded Request included. States live in an engine-owned arena the
// workload is generated straight into, fully re-initialized per run.
type reqState struct {
	Request
	// generated counts emitted tokens (the prefill-produced first
	// token included); remaining = OutputTokens - generated.
	generated  int
	pages      int
	firstToken units.Seconds
	done       units.Seconds
	admitSeq   int // admission order on the decode instance (preemption priority)
	// preemptMark carries the engine's step generation when this request
	// was chosen as a preemption victim — the allocation-free stand-in
	// for the per-step victim set.
	preemptMark int
	// Hedging state (hazard.go). twin links the two racing copies; inst
	// is the decode instance the copy was last routed to (-1 before any
	// hand-off) — the twin's routing anti-affinity.
	twin *reqState
	inst int
	// retries counts crash-orphaning retries spent. It never exceeds
	// Resilience.MaxRetries, which Validate caps at math.MaxInt32.
	retries int32
	// entry is 1 + the request's offEntry index while its KV lives in a
	// below-HBM tier (0 = none). Live entries number at most one per
	// request, hedge copy and session; offloadVictim checks the bound.
	entry int32
	// resumed marks a preempted request re-running prefill to rebuild
	// its KV (recompute); its first token was already emitted.
	resumed bool
	// corrupt marks a response tainted by undetected silent data
	// corruption (hazard.go); a corrupt completion never counts as
	// SLO-good.
	corrupt bool
	// completed marks the copy that completed the request — the arena
	// entry itself or its winning hedge clone — so the report can walk
	// the arena in ID order instead of sorting the completions.
	completed bool
	// isClone marks a speculative duplicate living outside the arena;
	// hstate is the race state (hzNone..hzDone).
	isClone bool
	hstate  int8
}

func (r *reqState) remaining() int { return r.OutputTokens - r.generated }

// healthState is an instance's availability: up instances take new
// work, degraded instances serve at derated bandwidth, draining
// instances finish what they hold but are excluded from routing, down
// and quarantined instances hold nothing and take nothing.
type healthState int8

const (
	healthUp healthState = iota
	// healthDegraded: a FaultDegrade derated the instance's comm
	// bandwidth. It still takes and holds work — a degraded instance is
	// precisely the gray failure the router's detection exists to catch,
	// so it stays in the routing candidate set until drained.
	healthDegraded
	healthDraining
	healthDown
	// healthQuarantined: removed after a detected SDC; crash-like (holds
	// nothing, takes nothing) until an optional repair recovers it.
	healthQuarantined
)

// servable reports whether the instance can take and hold new work.
func (h healthState) servable() bool { return h == healthUp || h == healthDegraded }

// dead reports whether the instance holds nothing (crash-like states).
func (h healthState) dead() bool { return h == healthDown || h == healthQuarantined }

// unitState is the lifecycle record every instance carries, prefill or
// decode: e.prefills holds it bare, decodeUnit embeds it, so one fault
// switch (applyFault) and one teardown (takeDown) serve both pools.
type unitState struct {
	health healthState
	// epoch invalidates the events a dead incarnation scheduled
	// (evPrefillDone, evStepDone, evReloadDone) after a takedown.
	epoch int
	// commScale is the comm-leg slowdown of the instance's EP all-to-all
	// (1 = healthy, T/(T-k) after a FaultDegrade of k of T planes).
	commScale float64
	// prefill is the in-flight prefill — a prefill instance's current
	// request or a colocated instance's stall-the-world prefill — nil
	// when none runs; it is orphaned if the instance goes down.
	prefill *reqState
}

// decodeUnit is one decode (or colocated) instance.
type decodeUnit struct {
	unitState
	active  []*reqState
	pending fifo // landed, waiting for batch slot + KV pages
	// reloads holds admitted requests whose offloaded KV is in flight
	// back to HBM; they occupy batch slots and pages but do not step
	// until evReloadDone.
	reloads  []*reqState
	kv       kvPool
	stepping bool
	// colocated bookkeeping
	sincePrefill int
	admitCounter int
}

// reset re-initializes the unit for a new run, keeping the batch-queue
// buffers.
func (d *decodeUnit) reset(kv kvPool) {
	clear(d.active)
	d.active = d.active[:0]
	clear(d.reloads)
	d.reloads = d.reloads[:0]
	d.pending.reset()
	d.kv = kv
	d.stepping = false
	d.unitState = unitState{commScale: 1}
	d.sincePrefill = 0
	d.admitCounter = 0
}

// zeroed returns s resized to n zero elements, reusing its storage when
// it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// fifo is a head-indexed FIFO of request states. Unlike the q = q[1:]
// re-slicing idiom, popping never sheds backing-array capacity: the
// buffer rewinds to its start whenever the queue drains, so a steady-
// state run enqueues and dequeues thousands of times with zero
// allocations.
type fifo struct {
	buf  []*reqState
	head int
}

func (f *fifo) push(r *reqState) { f.buf = append(f.buf, r) }

func (f *fifo) pop() *reqState {
	r := f.buf[f.head]
	f.buf[f.head] = nil
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return r
}

func (f *fifo) peek() *reqState { return f.buf[f.head] }

func (f *fifo) len() int { return len(f.buf) - f.head }

func (f *fifo) reset() {
	clear(f.buf)
	f.buf = f.buf[:0]
	f.head = 0
}

// Engine is a reusable serving-simulation engine: the event heap, the
// request-state arena, the per-instance queues and every metrics buffer
// are owned by the Engine and recycled across Run calls, so sweeps and
// capacity searches that run hundreds of simulations allocate only the
// Reports they return. An Engine is not safe for concurrent use — fan
// sweeps out with one Engine per worker (parallel.MapScratch). Every
// run fully re-initializes the recycled state, so a reused Engine's
// reports are byte-identical to a fresh one's.
type Engine struct {
	cfg    Config
	rng    *rand.Rand
	reseed func(int64)
	now    units.Seconds
	seq    int
	events eventHeap

	arena    []reqState // one entry per request in ID order, pointer-stable within a run
	prefillQ fifo
	prefills []unitState // empty when colocated
	decodes  []decodeUnit
	// idle indexes the prefill units that are idle and servable — the
	// dispatch candidates — and servable the decode units that are up or
	// degraded — the hand-off candidates. Both are kept exact where the
	// state changes (dispatch, prefillDone, setHealth), so a router reads
	// its candidates through view without a scan over the fleet.
	idle, servable idSet
	view           candView
	// kvUsed counts the pages allocated across every decode pool (kept by
	// the pools themselves, see kvPool.fleet); kvTotal is the fleet's page
	// capacity and kvAlive the capacity of the pools not down. Dead pools
	// hold no pages, so kvUsed/kvAlive is the up-fleet occupancy.
	kvUsed, kvTotal, kvAlive int

	// One router instance per decision point, so per-policy state
	// (round-robin cursors, the p2c stream) never couples prefill
	// dispatch to the decode hand-off.
	prefillRouter picker
	decodeRouter  picker

	// work counts the run's bookkeeping deterministically; eventHook,
	// when set, runs after every event (both are read and set by tests).
	work      workCounts
	eventHook func(*Engine) error

	mtpFactor float64
	lc        latConsts // per-run latency constants (see LatencyModel.consts)
	markGen   int       // preemption-victim generation (see reqState.preemptMark)
	hier      hierState // below-HBM tier state (zero when KV.Tiers is empty)

	// Observability hooks (see trace.go). Both stay nil unless attached,
	// so the disabled path costs one nil check per hook site and zero
	// allocations.
	tracer  obs.Tracer
	metrics *obs.Registry
	mi      metricIdx

	// Fault-injection state. The fault RNG is its own reseedable stream
	// (seed stream 4), so injected randomness never perturbs the
	// workload, MTP, or routing draws; every field below stays zero on a
	// fault-free run and adds no per-run allocation.
	faultRng      *rand.Rand
	faultReseed   func(int64)
	downCount     int           // instances not healthUp (degraded-span tracking)
	degradedSince units.Seconds // start of the currently open degraded span

	// Cross-layer hazard state (hazard.go). The hazard RNG is its own
	// reseedable stream (seed stream 5) covering SDC and detection
	// draws; hedging draws no randomness. hz and hedge are recycled
	// across runs and cost one bool write each on a hazard-free run.
	hazardRng    *rand.Rand
	hazardReseed func(int64)
	hz           hazardState
	hedge        hedgeState

	// metrics accumulation
	completed  int // requests completed
	failed     []*reqState
	shed       int
	retries    int // total retry attempts across requests
	retried    int // requests that retried at least once
	affected   int // requests orphaned by crashes or dead hand-offs
	kvLost     int // KV-resident tokens destroyed by crashes
	incidents  []Incident
	spans      []faultSpan // closed degraded intervals
	goodDone   []float64   // within-SLO completion times (incident recovery scan)
	preempts   int
	steps      int
	stepBatch  int
	stepTokens int
	peakOcc    float64
	samples    []TimelinePoint
	nextSample units.Seconds
	sampleStep units.Seconds

	lat []float64 // report percentile scratch: TTFT, then TPOT, then E2E
}

// workCounts are deterministic measures of a run's bookkeeping cost,
// free of timing noise.
type workCounts struct {
	events int // events popped off the heap
	picks  int // router decisions
	loads  int // candidate loads the routers read
	// scans counts the per-unit iterations of fleet scans made while
	// handling events (the colocated dispatch sweep, the gray-failure
	// median in hazard.go). The timeline and metrics samplers' scans are
	// left out: they run once per sample tick, a bounded number of times
	// per run, whatever the traffic.
	scans int
	kvOps int // KV page-pool tryAlloc and release calls
}

// faultSpan is one interval during which at least one instance was
// degraded (down or draining).
type faultSpan struct {
	start, end units.Seconds
}

// NewEngine returns an empty engine; buffers grow to the largest run it
// executes.
func NewEngine() *Engine {
	e := &Engine{}
	e.rng, e.reseed = parallel.NewReseedable(0)
	e.faultRng, e.faultReseed = parallel.NewReseedable(0)
	e.hazardRng, e.hazardReseed = parallel.NewReseedable(0)
	return e
}

// Run simulates the workload on the cluster and reports request-level
// latency, goodput, and occupancy metrics. Equivalent to calling Run on
// a fresh Engine — reuse recycles buffers, never state.
func Run(cfg Config, w Workload) (*Report, error) {
	return NewEngine().Run(cfg, w)
}

// Run simulates the workload, reusing the engine's buffers.
func (e *Engine) Run(cfg Config, w Workload) (*Report, error) {
	if cfg.Fleet.ColocatedStride == 0 {
		cfg.Fleet.ColocatedStride = 4
	}
	if err := cfg.validateRun(w); err != nil {
		return nil, err
	}
	e.arena = generateInto(w, parallel.DeriveSeed(cfg.Seed, 0), e.arena, reqState{inst: -1},
		func(r *reqState) *Request { return &r.Request })

	// Seed-stream layout: 0 workload, 1 engine (MTP acceptance), 2/3
	// the routing streams, 4 fault injection. Routing and fault draws
	// never touch the engine stream, so switching policies (or adding a
	// fault plan) cannot perturb speculative decoding.
	e.cfg = cfg
	e.reseed(parallel.DeriveSeed(cfg.Seed, 1))
	e.prefillRouter = newPicker(cfg.Fleet.Router, parallel.DeriveSeed(cfg.Seed, 2))
	e.decodeRouter = newPicker(cfg.Fleet.Router, parallel.DeriveSeed(cfg.Seed, 3))
	e.work = workCounts{}
	e.lc = cfg.Latency.consts()
	e.resetHier()
	e.now = 0
	e.seq = 0
	e.mtpFactor = 1
	e.markGen = 0
	e.prefillQ.reset()
	e.completed = 0
	clear(e.failed)
	e.failed = e.failed[:0]
	e.shed, e.retries, e.retried, e.affected, e.kvLost = 0, 0, 0, 0, 0
	e.downCount = 0
	e.incidents = e.incidents[:0]
	e.spans = e.spans[:0]
	e.goodDone = e.goodDone[:0]
	e.preempts, e.steps, e.stepBatch, e.stepTokens = 0, 0, 0, 0
	e.peakOcc = 0
	e.samples = e.samples[:0]
	if cfg.MTP != nil {
		e.mtpFactor = cfg.MTP.StepCost()
	}
	nPrefill, nDecode := cfg.Fleet.shape()
	e.prefills = zeroed(e.prefills, nPrefill)
	e.idle.reset(nPrefill)
	for i := range e.prefills {
		e.prefills[i].commScale = 1
		e.idle.put(i, true)
	}
	if cap(e.decodes) < nDecode {
		next := make([]decodeUnit, nDecode)
		copy(next, e.decodes[:cap(e.decodes)])
		e.decodes = next
	}
	e.decodes = e.decodes[:nDecode]
	kv := kvPool{total: cfg.KV.HBM.TotalPages(e.lc.kvPerToken), fleet: &e.kvUsed, ops: &e.work.kvOps}
	e.servable.reset(nDecode)
	for i := range e.decodes {
		e.decodes[i].reset(kv)
		e.servable.put(i, true)
	}
	e.kvUsed, e.kvTotal = 0, kv.total*nDecode
	e.kvAlive = e.kvTotal
	e.resetHazards(nDecode)
	e.obsBeginRun(nPrefill, nDecode)

	// Sample the batch/occupancy timeline on a horizon estimated from
	// the offered traffic; sampling is clocked off event times only, so
	// it never perturbs the simulation.
	horizon := e.arena[len(e.arena)-1].Arrival + 1
	e.sampleStep = horizon / timelineSamples
	if e.sampleStep <= 0 {
		e.sampleStep = 1
	}
	e.nextSample = e.sampleStep

	e.events.reset()

	if plan := cfg.Resilience.Faults; plan != nil {
		e.faultReseed(parallel.DeriveSeed(cfg.Seed, 4))
		for i := range plan.Events {
			e.schedule(plan.Events[i].At, evFaultPlanned, i, nil)
		}
		if plan.MTBF > 0 {
			e.schedule(e.faultRng.ExpFloat64()*plan.MTBF, evFaultRandom, 0, nil)
		}
	}
	if cfg.Resilience.Hazards != nil {
		e.hazardReseed(parallel.DeriveSeed(cfg.Seed, 5))
	}
	// Arrivals are merged from the arena (sorted by arrival, stably)
	// instead of being pre-scheduled, so the heap holds only the events
	// in flight. On a time tie the arrival goes first, the order it had
	// when every arrival was scheduled ahead of any other event.
	arr := 0
	for arr < len(e.arena) || len(e.events) > 0 {
		var ev event
		if arr < len(e.arena) && (len(e.events) == 0 || e.arena[arr].Arrival <= e.events.at()) {
			ev = event{at: e.arena[arr].Arrival, kind: evArrival, req: &e.arena[arr]}
			arr++
		} else {
			ev = e.events.pop()
			e.work.events++
		}
		stop, err := e.processEvent(&ev)
		if err == nil && e.eventHook != nil {
			err = e.eventHook(e)
		}
		if err != nil {
			return nil, err
		}
		// Every request resolved: only maintenance events (fault
		// schedule entries, MTBF re-arms, repairs) can remain, and the
		// MTBF chain re-arms itself forever — stop here, not on queue
		// drain.
		if stop {
			break
		}
	}
	return e.finishRun()
}

// processEvent advances the simulation through one event: clock, the
// sampling and metrics grids, the event's handler, then a dispatch
// pass. It returns stop=true once every request is resolved.
func (e *Engine) processEvent(ev *event) (stop bool, err error) {
	e.now = ev.at
	e.sampleUpTo(e.now)
	e.metricsUpTo(e.now)
	switch ev.kind {
	case evArrival:
		if e.shouldShed() {
			e.shed++
			e.trMark(ev.req, obs.MarkShed)
		} else {
			e.trMark(ev.req, obs.MarkArrival)
			e.trPhaseBegin(ev.req, obs.PhaseQueue, -1)
			e.prefillQ.push(ev.req)
			if e.hedge.on {
				e.schedule(e.now+e.hedgeDelay(), evHedge, 0, ev.req)
			}
		}
	case evPrefillDone:
		e.prefillDone(ev)
	case evDecodeLand:
		if ev.req.hstate == hzLost {
			e.hedgeDrop(ev.req)
			break
		}
		d := &e.decodes[ev.inst]
		if d.health.dead() {
			// The KV migration arrived at a crashed host: the
			// request is orphaned mid-hand-off.
			e.orphan(ev.req)
			break
		}
		e.trPhaseEnd(ev.req)
		e.trPhaseBegin(ev.req, obs.PhaseQueue, ev.inst)
		d.pending.push(ev.req)
		if !d.stepping && d.prefill == nil {
			e.startStep(ev.inst)
		}
	case evStepDone:
		if e.decodes[ev.inst].epoch != ev.epoch {
			break // scheduled by a crashed incarnation
		}
		if err := e.stepDone(ev.inst); err != nil {
			return false, err
		}
	case evFaultPlanned:
		e.applyFault(e.cfg.Resilience.Faults.Events[ev.inst])
	case evFaultRandom:
		e.randomCrash()
	case evFaultRecover:
		fe := FaultEvent{Kind: FaultRecover, Instance: ev.inst}
		if fe.Instance < 0 {
			fe.Prefill, fe.Instance = true, -(fe.Instance + 1)
		}
		e.applyFault(fe)
	case evRetry:
		req := ev.req
		if req.hstate == hzLost {
			e.hedgeDrop(req)
			break
		}
		req.resumed = req.generated > 0
		e.trPhaseEnd(req)
		e.trMark(req, obs.MarkRetry)
		e.trPhaseBegin(req, obs.PhaseQueue, -1)
		e.prefillQ.push(req)
	case evReloadDone:
		if e.decodes[ev.inst].epoch != ev.epoch {
			break // scheduled by a crashed incarnation
		}
		e.reloadDone(ev.inst, ev.req)
	case evHedge:
		e.hedgeFire(ev.req)
	}
	e.dispatch()
	return e.completed+len(e.failed)+e.shed == len(e.arena), nil
}

// finishRun closes the run out after the event loop: the open degraded
// span, the stall check, and report assembly.
func (e *Engine) finishRun() (*Report, error) {
	if e.downCount > 0 {
		e.spans = append(e.spans, faultSpan{start: e.degradedSince, end: e.now})
		e.downCount = 0
	}
	if n := e.completed + len(e.failed) + e.shed; n != len(e.arena) {
		return nil, fmt.Errorf("servesim: %d of %d requests never completed (scheduling stall)",
			len(e.arena)-n, len(e.arena))
	}
	e.hedgeSweep()
	e.obsEndRun()
	return e.report(), nil
}

func (e *Engine) schedule(at units.Seconds, kind eventKind, inst int, req *reqState) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, kind: kind, inst: inst, req: req})
}

// scheduleEpoch is schedule for events that must die with the target
// instance's current incarnation (evStepDone, evPrefillDone).
func (e *Engine) scheduleEpoch(at units.Seconds, kind eventKind, inst, epoch int, req *reqState) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, kind: kind, inst: inst, epoch: epoch, req: req})
}

// shouldShed applies the admission policy to one arrival: shed when the
// shared prefill queue is too deep or the up-fleet KV occupancy too
// high — the graceful-degradation gate that keeps admitted requests'
// latency bounded under overload.
func (e *Engine) shouldShed() bool {
	a := e.cfg.Resilience.Admission
	if !a.enabled() {
		return false
	}
	if a.MaxQueueDepth > 0 && e.prefillQ.len() >= a.MaxQueueDepth {
		return true
	}
	return a.MaxKVOccupancy > 0 && e.kvAlive > 0 &&
		float64(e.kvUsed)/float64(e.kvAlive) > a.MaxKVOccupancy
}

// dispatch hands queued prefill work to idle capacity. It runs after
// every event so newly queued (or preempted) requests and newly idle
// instances always meet. Disaggregated prefill assignment goes through
// the prefill router over the idle candidate set; colocated instances
// pull from the shared queue themselves (startStep), so only the fixed
// scan order applies there. Every path is deterministic.
func (e *Engine) dispatch() {
	e.purgeLostHead()
	if e.prefillQ.len() == 0 {
		return
	}
	if e.cfg.Fleet.Colocated {
		for i := range e.decodes {
			if e.prefillQ.len() == 0 {
				return
			}
			e.work.scans++
			if d := &e.decodes[i]; d.health.servable() && !d.stepping && d.prefill == nil {
				e.startStep(i)
			}
		}
		return
	}
	// Health-aware candidate set: crashed and draining prefill units are
	// not in the idle index (degraded ones still serve, slower).
	for e.prefillQ.len() > 0 && e.idle.n > 0 {
		inst := e.route(e.prefillRouter, &e.idle, nil, -1)
		e.idle.put(inst, false)
		req := e.prefillQ.pop()
		p := &e.prefills[inst]
		p.prefill = req
		cost := e.prefillCost(req, p.commScale)
		e.trPhaseEnd(req)
		e.trPhaseBegin(req, obs.PhasePrefill, inst)
		e.trCompute(cost, true, inst, obs.ComputePrefill, req.ID)
		e.scheduleEpoch(e.now+cost, evPrefillDone, inst, p.epoch, req)
		e.purgeLostHead()
	}
}

// route runs a router over an index-backed candidate view — set, with
// loads read from decodes when non-nil, less set position skip when
// skip >= 0 — and returns the instance it picks.
func (e *Engine) route(r picker, set *idSet, decodes []decodeUnit, skip int) int {
	e.view = candView{set: set, decodes: decodes, skip: skip}
	k := r.pick(&e.view)
	e.work.picks++
	e.work.loads += e.view.reads
	return set.nth(e.view.pos(k))
}

// purgeLostHead drops losing hedge copies off the head of the shared
// prefill queue before dispatch commits capacity to them (hazard.go).
func (e *Engine) purgeLostHead() {
	if !e.hedge.on {
		return
	}
	for e.prefillQ.len() > 0 && e.prefillQ.peek().hstate == hzLost {
		e.hedgeDrop(e.prefillQ.pop())
	}
}

// ctx is the request's context: the prompt plus every token generated
// so far. Before the first token it is what a prefill processes; after a
// preemption, what a recompute re-prefill rebuilds; once the first token
// is out, the KV-resident context (prompt + generated-1 decode-written
// tokens, approximated as prompt + generated).
func (r *reqState) ctx() int {
	return r.PromptTokens + r.generated
}

// prefillDone completes a prefill: the request's first token is
// emitted here (prefill computes the logits of token one), then the
// KV moves to a decode instance.
func (e *Engine) prefillDone(ev *event) {
	req := ev.req
	colocated := e.cfg.Fleet.Colocated
	u := e.unit(!colocated, ev.inst)
	if u.epoch != ev.epoch {
		return // the instance crashed mid-prefill; req was orphaned then
	}
	u.prefill = nil
	if colocated {
		e.colocatedPrefillDone(ev.inst, req)
		return
	}
	if u.health.servable() {
		e.idle.put(ev.inst, true)
	}
	if req.hstate == hzLost {
		// The twin completed while this copy prefilled: the work is
		// discarded and the unit freed.
		e.hedgeDrop(req)
		return
	}
	e.trPhaseEnd(req)
	e.emitFirstToken(req)
	if req.remaining() == 0 {
		e.complete(req)
		return
	}
	// Route to a decode instance via the configured policy (least-KV
	// by default), after the KV migration delay. Crashed and draining
	// instances are excluded; a fleet with no healthy decode instance
	// orphans the request into the retry path.
	if e.servable.n == 0 {
		e.orphan(req)
		return
	}
	best := e.route(e.decodeRouter, &e.servable, e.decodes, e.twinSkip(req))
	req.inst = best
	transfer := e.cfg.Latency.kvBytesForContext(e.lc, req.ctx()) / kvTransferBW
	e.trPhaseBegin(req, obs.PhaseTransfer, best)
	e.schedule(e.now+transfer, evDecodeLand, best, req)
}

// twinSkip is the hedge anti-affinity of a decode hand-off: a racing
// copy avoids its twin's decode instance when any alternative exists,
// so the race spans failure domains instead of queueing twice on the
// same straggler. It returns the twin's position in the servable index,
// or -1 when nothing is excluded.
func (e *Engine) twinSkip(req *reqState) int {
	if t := req.twin; t != nil && req.hstate == hzRacing && e.servable.n > 1 && t.inst >= 0 && e.servable.has(t.inst) {
		return e.servable.rank(t.inst)
	}
	return -1
}

func (e *Engine) emitFirstToken(req *reqState) {
	if !req.resumed {
		req.firstToken = e.now
		req.generated = 1
	}
}

func (e *Engine) complete(req *reqState) {
	if req.hstate == hzRacing {
		e.hedgeWin(req)
	}
	req.done = e.now
	if e.hedge.on {
		req.hstate = hzDone
		e.noteHedgeE2E(req.done - req.Arrival)
	}
	if req.corrupt {
		e.hz.corrupt++
		e.trMark(req, obs.MarkCorrupt)
	}
	e.trPhaseEnd(req)
	e.trMark(req, obs.MarkComplete)
	req.completed = true
	e.completed++
	e.prefixStore(req)
}

// startStep begins the next unit of work on a decode instance: for a
// colocated instance possibly a stall-the-world prefill, otherwise
// admission plus one continuous-batching decode step.
func (e *Engine) startStep(inst int) {
	d := &e.decodes[inst]
	e.purgeLostHead()

	if e.cfg.Fleet.Colocated && d.health.servable() && e.prefillQ.len() > 0 && len(d.active) < e.cfg.Fleet.MaxBatch &&
		(len(d.active) == 0 || d.sincePrefill >= e.cfg.Fleet.ColocatedStride) {
		req := e.prefillQ.peek()
		// A colocated request decodes in place, so reserve its full
		// final context up front (conservative policy: a stall-the-
		// world prefill must never later become an unpreemptable
		// grower). If the pool is full the prefill waits for
		// completions to free pages.
		pages := e.cfg.KV.HBM.PagesFor(req.PromptTokens + req.OutputTokens)
		if d.kv.tryAlloc(pages) {
			e.prefillQ.pop()
			req.pages = pages
			d.prefill = req
			e.notePeakOcc()
			cost := e.prefillCost(req, d.commScale)
			e.trPhaseEnd(req)
			e.trPhaseBegin(req, obs.PhasePrefill, inst)
			e.trCompute(cost, false, inst, obs.ComputePrefill, req.ID)
			e.scheduleEpoch(e.now+cost, evPrefillDone, inst, d.epoch, req)
			return
		}
	}

	// Admit landed requests in FIFO order while batch slots and KV
	// pages allow; the head of the queue blocks (no reordering). Only
	// disaggregated instances have a landing queue — colocated requests
	// join the batch directly from their stall-the-world prefill
	// (colocatedPrefillDone), so d.pending is never populated under
	// Colocated.
	if !e.cfg.Fleet.Colocated {
		for len(d.active)+len(d.reloads) < e.cfg.Fleet.MaxBatch && d.pending.len() > 0 {
			req := d.pending.peek()
			if req.hstate == hzLost {
				d.pending.pop()
				e.hedgeDrop(req)
				continue
			}
			if req.entry != 0 && e.hier.entries[req.entry-1].dropped {
				// The offloaded chunks were evicted off the bottom tier
				// while the request queued: recompute preemption after
				// all, exactly as if the tiers were absent.
				d.pending.pop()
				e.hier.forget(req)
				req.resumed = true
				e.preempts++
				// The queue phase continues: the request rejoins the shared
				// prefill queue without leaving the queued state.
				e.trMark(req, obs.MarkPreempt)
				e.prefillQ.push(req)
				continue
			}
			pages := e.cfg.KV.HBM.PagesFor(req.ctx())
			if !d.kv.tryAlloc(pages) {
				break
			}
			req.pages = pages
			if req.entry != 0 {
				d.pending.pop()
				e.notePeakOcc()
				e.startReload(inst, req)
				continue
			}
			d.admitCounter++
			req.admitSeq = d.admitCounter
			d.pending.pop()
			e.trPhaseEnd(req)
			e.trPhaseBegin(req, obs.PhaseDecode, inst)
			d.active = append(d.active, req)
			e.notePeakOcc()
		}
	}
	if len(d.active) == 0 {
		d.stepping = false
		return
	}

	var attn batchAttention
	for _, req := range d.active {
		e.cfg.Latency.addContextC(e.lc, &attn, req.ctx())
	}
	dt := e.cfg.Latency.decodeStepTime(e.lc, len(d.active), attn, d.commScale) * e.mtpFactor
	if e.hz.on {
		// Every step pays the Freivalds verification pass (when
		// configured). The gray-failure tracker records the step's
		// observed-vs-expected ratio — observed time over the model's
		// healthy-interconnect prediction for the same batch — so the
		// signal sits at 1.0 for a clean instance at any occupancy and
		// rises only with genuine slowdown; raw per-slot cost would
		// confuse a lightly-loaded instance with a degraded one.
		dt += e.verifyCost(len(d.active))
		if e.hz.detect {
			base := e.cfg.Latency.decodeStepTime(e.lc, len(d.active), attn, 1)*e.mtpFactor + e.verifyCost(len(d.active))
			e.hz.stepCost[inst] = dt / base
		}
	}
	d.stepping = true
	d.sincePrefill++
	e.steps++
	e.stepBatch += len(d.active)
	e.trCompute(dt, false, inst, obs.ComputeDecodeStep, len(d.active))
	e.scheduleEpoch(e.now+dt, evStepDone, inst, d.epoch, nil)
}

// colocatedPrefillDone finishes a stall-the-world prefill on a
// colocated instance (prefillDone has cleared d.prefill): the request
// joins that instance's batch directly (its KV pages were reserved at
// prefill start).
func (e *Engine) colocatedPrefillDone(inst int, req *reqState) {
	d := &e.decodes[inst]
	d.sincePrefill = 0
	if req.hstate == hzLost {
		d.kv.release(req.pages)
		req.pages = 0
		e.hedgeDrop(req)
		e.startStep(inst)
		return
	}
	e.trPhaseEnd(req)
	e.emitFirstToken(req)
	if req.remaining() == 0 {
		d.kv.release(req.pages)
		req.pages = 0
		e.complete(req)
	} else {
		d.admitCounter++
		req.admitSeq = d.admitCounter
		e.trPhaseBegin(req, obs.PhaseDecode, inst)
		d.active = append(d.active, req)
	}
	e.startStep(inst)
}

// stepDone advances every active request by one decode iteration:
// token emission (plus MTP-accepted drafts), then completion, then KV
// growth with preemption on pool exhaustion. Finished requests release
// their pages before anyone grows, so a request that just emitted its
// last token can never be chosen as a preemption victim.
func (e *Engine) stepDone(inst int) error {
	d := &e.decodes[inst]
	if e.hedge.on {
		// Drop copies whose twin resolved mid-step before they emit:
		// their pages free now, their tokens are discarded work.
		keep := d.active[:0]
		for _, req := range d.active {
			if req.hstate == hzLost {
				d.kv.release(req.pages)
				req.pages = 0
				e.hedgeDrop(req)
			} else {
				keep = append(keep, req)
			}
		}
		clear(d.active[len(keep):])
		d.active = keep
	}
	if e.hz.on {
		corrupt, detected := e.sdcStep()
		if detected {
			// Verification caught the corruption: the step's outputs are
			// discarded and the instance leaves service — a retryable
			// fault instead of a corrupt completed response.
			e.quarantine(inst)
			return nil
		}
		if corrupt {
			for _, req := range d.active {
				req.corrupt = true
			}
		}
		e.noteStepEWMA(inst)
	}
	for _, req := range d.active {
		emitted := 1
		if c := e.cfg.MTP; c != nil {
			for i := 0; i < c.Modules && req.generated+emitted < req.OutputTokens; i++ {
				if e.rng.Float64() >= c.Acceptance {
					break
				}
				emitted++
			}
		}
		if emitted > req.remaining() {
			emitted = req.remaining()
		}
		req.generated += emitted
		e.stepTokens += emitted
	}

	unfinished := d.active[:0]
	for _, req := range d.active {
		if req.remaining() == 0 {
			d.kv.release(req.pages)
			req.pages = 0
			e.complete(req)
		} else {
			unfinished = append(unfinished, req)
		}
	}
	clear(d.active[len(unfinished):])
	d.active = unfinished

	// Victim bookkeeping rides on a per-step generation mark instead of
	// a freshly allocated set: a request is "preempted this step" iff
	// its mark equals the current generation.
	e.markGen++
	gen := e.markGen
	nPreempted := 0
	for _, req := range d.active {
		if req.preemptMark == gen {
			continue
		}
		if need := e.cfg.KV.HBM.PagesFor(req.ctx()) - req.pages; need > 0 {
			for !d.kv.tryAlloc(need) {
				victim := e.pickVictim(d, req, gen)
				if victim == nil {
					// The rest of the pool is held by requests whose
					// reload is in flight (d.reloads), out of the victim
					// search: the grower gives way itself, unless it
					// could not fit even an otherwise empty pool.
					if req.pages+need > d.kv.total {
						return errNoVictim(inst)
					}
					victim = req
				}
				victim.preemptMark = gen
				nPreempted++
				d.kv.release(victim.pages)
				victim.pages = 0
				if victim == req {
					break
				}
			}
			if req.preemptMark == gen {
				continue
			}
			req.pages += need
			e.notePeakOcc()
		}
	}

	if nPreempted > 0 {
		keep := d.active[:0]
		for _, req := range d.active {
			if req.preemptMark == gen {
				if e.offloadVictim(d, req) {
					// The victim's KV moved down the hierarchy intact;
					// it waits in the landing queue for pages and a
					// reload instead of recomputing.
					e.trPhaseEnd(req)
					e.trMark(req, obs.MarkOffload)
					e.trPhaseBegin(req, obs.PhaseQueue, inst)
					continue
				}
				// Recompute-style preemption: pages are gone, the
				// request re-prefills prompt + generated tokens, then
				// resumes.
				req.resumed = true
				e.preempts++
				e.trPhaseEnd(req)
				e.trMark(req, obs.MarkPreempt)
				e.trPhaseBegin(req, obs.PhaseQueue, -1)
				e.prefillQ.push(req)
			} else {
				keep = append(keep, req)
			}
		}
		clear(d.active[len(keep):])
		d.active = keep
	}
	e.startStep(inst)
	return nil
}

func errNoVictim(inst int) error {
	return fmt.Errorf("servesim: KV exhausted with no preemption victim on instance %d", inst)
}

// pickVictim selects the latest-admitted unfinished active request
// other than the growing one (and not already preempted this step,
// i.e. not carrying the current generation mark) — the vLLM recompute
// policy: evict the newest work, keep the oldest streams running.
func (e *Engine) pickVictim(d *decodeUnit, grower *reqState, gen int) *reqState {
	var victim *reqState
	for _, req := range d.active {
		if req == grower || req.preemptMark == gen || req.pages == 0 {
			continue
		}
		if victim == nil || req.admitSeq > victim.admitSeq {
			victim = req
		}
	}
	return victim
}

func (e *Engine) notePeakOcc() {
	if e.kvTotal == 0 {
		return
	}
	if occ := float64(e.kvUsed) / float64(e.kvTotal); occ > e.peakOcc {
		e.peakOcc = occ
	}
}

// unit returns the lifecycle record of a prefill or decode instance.
func (e *Engine) unit(prefill bool, inst int) *unitState {
	if prefill {
		return &e.prefills[inst]
	}
	return &e.decodes[inst].unitState
}

// setHealth moves an instance to a new health state, tracking fleet
// degradation across the transition: it keeps the candidate indexes and
// the alive KV capacity exact, and opens/closes the degraded span that
// splits SLO attainment by fault epoch.
func (e *Engine) setHealth(prefill bool, inst int, to healthState) {
	u := e.unit(prefill, inst)
	if prefill {
		e.idle.put(inst, u.prefill == nil && to.servable())
	} else {
		e.servable.put(inst, to.servable())
		if wasDead := u.health.dead(); wasDead != to.dead() {
			if wasDead {
				e.kvAlive += e.decodes[inst].kv.total
			} else {
				e.kvAlive -= e.decodes[inst].kv.total
			}
		}
	}
	wasUp, isUp := u.health == healthUp, to == healthUp
	u.health = to
	if wasUp == isUp {
		return
	}
	if isUp {
		e.downCount--
		if e.downCount == 0 {
			e.spans = append(e.spans, faultSpan{start: e.degradedSince, end: e.now})
		}
		return
	}
	if e.downCount == 0 {
		e.degradedSince = e.now
	}
	e.downCount++
}

// applyFault applies one incident to a prefill or decode instance.
// Crashing a down instance, recovering an up one, draining a
// non-servable one, degrading a non-up one or healing a non-degraded
// one are no-ops on health, so fault scripts compose without ordering
// hazards. Degrade and heal always set the comm scale, whatever the
// health.
func (e *Engine) applyFault(ev FaultEvent) {
	prefill, inst := ev.Prefill, ev.Instance
	u := e.unit(prefill, inst)
	switch ev.Kind {
	case FaultCrash:
		if !u.health.dead() {
			e.takeDown(prefill, inst, healthDown, "crash", "crash")
		}
	case FaultRecover:
		if u.health != healthUp {
			e.trIncident(prefill, inst, "recover")
		}
		e.setHealth(prefill, inst, healthUp)
	case FaultDrain:
		if u.health.servable() {
			e.trIncident(prefill, inst, "drain")
			e.setHealth(prefill, inst, healthDraining)
		}
	case FaultDegrade:
		u.commScale = ev.commScale()
		if u.health == healthUp {
			e.trIncident(prefill, inst, "degrade")
			e.setHealth(prefill, inst, healthDegraded)
		}
	case FaultHeal:
		u.commScale = 1
		// A degraded instance returns to full health; so does a decode
		// straggler the detector drained, its cause now gone.
		if u.health == healthDegraded ||
			(!prefill && u.health == healthDraining && e.hz.on && e.hz.grayDrained[inst]) {
			e.trIncident(prefill, inst, "heal")
			e.setHealth(prefill, inst, healthUp)
		}
	}
	if prefill {
		return
	}
	if ev.Kind == FaultRecover || ev.Kind == FaultHeal {
		e.forgetStraggler(inst)
	}
	if d := &e.decodes[inst]; ev.Kind == FaultHeal && !d.stepping && d.prefill == nil {
		e.startStep(inst)
	}
}

// randomCrash fires one MTBF-drawn crash: a uniform random instance
// (already-down victims waste the draw — the hazard does not
// concentrate on survivors), auto-repaired after an MTTR dwell, then
// re-arms the next crash. All draws come from the fault stream in a
// fixed order, so the schedule is a pure function of the seed.
func (e *Engine) randomCrash() {
	plan := e.cfg.Resilience.Faults
	pick := e.faultRng.Intn(len(e.prefills) + len(e.decodes))
	var repair units.Seconds
	if plan.MTTR > 0 {
		repair = e.faultRng.ExpFloat64() * plan.MTTR
	}
	ev := FaultEvent{Kind: FaultCrash, Prefill: pick < len(e.prefills), Instance: pick}
	if !ev.Prefill {
		ev.Instance -= len(e.prefills)
	}
	if !e.unit(ev.Prefill, ev.Instance).health.dead() {
		e.applyFault(ev)
		e.scheduleRecover(ev.Prefill, ev.Instance, repair)
	}
	e.schedule(e.now+e.faultRng.ExpFloat64()*plan.MTBF, evFaultRandom, 0, nil)
}

// scheduleRecover repairs a taken-down instance after a dwell; a zero
// dwell leaves it down for the rest of the run.
func (e *Engine) scheduleRecover(prefill bool, inst int, after units.Seconds) {
	if after <= 0 {
		return
	}
	if prefill {
		inst = -(inst + 1) // see evFaultRecover
	}
	e.schedule(e.now+after, evFaultRecover, inst, nil)
}

// takeDown removes an instance from service, as a crash (to =
// healthDown) or an SDC quarantine (to = healthQuarantined): every
// request it holds is orphaned into the retry path, a decode
// instance's KV pool is freed wholesale, and the epoch bump invalidates
// the events its dead incarnation scheduled. The decode queues are
// orphaned first — active batch, in-flight reloads, landing queue — and
// the in-flight prefill last, because orphan order sets the order of
// the retry events.
func (e *Engine) takeDown(prefill bool, inst int, to healthState, traceKind, kind string) {
	u := e.unit(prefill, inst)
	e.trIncident(prefill, inst, traceKind)
	inc := Incident{At: e.now, Instance: inst, Prefill: prefill, Kind: kind}
	if !prefill {
		d := &e.decodes[inst]
		// Active and reloading requests hold pages on the dead pool and
		// count as KV-resident context lost.
		for _, req := range d.active {
			inc.Orphaned++
			inc.KVTokensLost += req.ctx()
			e.orphan(req)
		}
		clear(d.active)
		d.active = d.active[:0]
		for _, req := range d.reloads {
			inc.Orphaned++
			inc.KVTokensLost += req.ctx()
			e.orphan(req)
		}
		clear(d.reloads)
		d.reloads = d.reloads[:0]
		for d.pending.len() > 0 {
			// Landed requests hold no pages yet; they are affected but
			// add no KV loss.
			inc.Orphaned++
			e.orphan(d.pending.pop())
		}
		d.pending.reset()
		d.stepping = false
		d.kv.release(d.kv.used)
	}
	if req := u.prefill; req != nil {
		// Partially built prefill KV counts as lost.
		inc.Orphaned++
		inc.KVTokensLost += req.ctx()
		e.orphan(req)
		u.prefill = nil
	}
	u.epoch++
	e.setHealth(prefill, inst, to)
	e.kvLost += inc.KVTokensLost
	e.incidents = append(e.incidents, inc)
}

// orphan routes one crash-dropped request through the retry policy:
// requeue after backoff while budget remains, otherwise fail it. The
// request's pages are gone either way (the crashed pool was freed
// wholesale), so a retried request re-prefills its whole context —
// recompute, exactly like a preemption victim.
func (e *Engine) orphan(req *reqState) {
	if req.hstate == hzLost {
		// A losing hedge copy swept up in a crash: its race already
		// resolved, so it just disappears (pages were freed wholesale).
		e.hier.forget(req)
		req.pages = 0
		e.hedgeDrop(req)
		return
	}
	e.hier.forget(req)
	req.pages = 0
	e.affected++
	e.trPhaseEnd(req)
	e.trMark(req, obs.MarkOrphan)
	if int(req.retries) < e.cfg.Resilience.MaxRetries {
		if req.retries == 0 {
			e.retried++
		}
		req.retries++
		e.retries++
		e.trPhaseBegin(req, obs.PhaseBackoff, -1)
		e.schedule(e.now+retryDelay(int(req.retries)), evRetry, 0, req)
		return
	}
	// Retry budget exhausted. A copy whose twin still races is absorbed
	// — the request's fate rides on the surviving copy — instead of
	// failing a request that may yet complete.
	if e.hedgeOrphanAbsorbed(req) {
		return
	}
	req.done = e.now
	if e.hedge.on {
		req.hstate = hzDone
		if t := req.twin; t != nil && t.hstate == hzAbandoned {
			t.hstate = hzDone
		}
	}
	e.trMark(req, obs.MarkFailed)
	e.failed = append(e.failed, req)
}

// sampleUpTo records timeline points for every sampling instant that
// has passed; state between events is constant, so carrying the
// current snapshot forward is exact.
//
// The horizon is only an estimate from the offered traffic, so an
// overloaded run can outlive it many times over. When the buffer fills,
// resolution is halved in place — keep every second point, double the
// stride — rather than truncating: a truncated timeline stops mid-run
// and biases MeanKVOccupancy toward the warm-up window, while
// decimation keeps the samples spanning the whole makespan at a coarser
// (still uniform) grid.
func (e *Engine) sampleUpTo(t units.Seconds) {
	for e.nextSample <= t {
		if len(e.samples) >= 4*timelineSamples {
			keep := len(e.samples) / 2
			for i := 0; i < keep; i++ {
				e.samples[i] = e.samples[2*i+1]
			}
			e.samples = e.samples[:keep]
			e.sampleStep *= 2
			e.nextSample = e.samples[keep-1].Time + e.sampleStep
			continue
		}
		batch, used, total := e.fleetSnapshot()
		occ := 0.0
		if total > 0 {
			occ = float64(used) / float64(total)
		}
		e.samples = append(e.samples, TimelinePoint{
			Time:        e.nextSample,
			ActiveBatch: batch,
			KVOccupancy: occ,
		})
		e.nextSample += e.sampleStep
	}
}

// fleetSnapshot totals the decode fleet's instantaneous state — the
// running batch and KV pool usage — shared by the timeline sampler and
// the metrics registry (fillMetrics).
func (e *Engine) fleetSnapshot() (batch, used, total int) {
	for i := range e.decodes {
		batch += len(e.decodes[i].active)
	}
	return batch, e.kvUsed, e.kvTotal
}
