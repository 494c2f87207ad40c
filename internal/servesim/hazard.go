// Cross-layer hazards: substrate faults mapped into the serving-layer
// fault model instead of being injected directly (ROADMAP's composed-
// faults clause). A plane failure (§5.1.1) does not kill an instance —
// it derates the EP all-to-all bandwidth of the instances riding the
// degraded planes, so their decode/prefill steps slow proportionally
// (the netsim bandwidth ratio T/(T-k) applied to the comm leg of the
// latency model). Silent data corruption (§6.1.2) does not raise an
// error — it corrupts a step's outputs, which either propagates into a
// corrupt completed response or, with a Freivalds-style verification
// pass (cost charged into every step per gemm.VerifyGEMM's O(n²)
// model), is caught with probability 1-2^-trials and converted into a
// retryable fault plus an instance quarantine.
//
// The router side closes the loop: per-instance EWMA step-latency
// tracking against the fleet median detects gray failures — instances
// that are slow, not down — and drains persistent stragglers; hedged
// requests dispatch a speculative duplicate after a delay (fixed or
// p95-tracked) with first-wins cancellation, trading duplicate work for
// tail latency on a degraded fleet.
//
// Determinism: hazard randomness (SDC draws, detection draws) lives on
// its own seed stream (5), hedging draws no randomness at all, and every
// hazard buffer is engine-owned and allocated only when a plan is
// configured — a run with Hazards nil and Hedge disabled executes the
// historical instruction stream byte-for-byte.

package servesim

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dsv3/internal/obs"
	"dsv3/internal/parallel"
	"dsv3/internal/units"
)

// defaultTotalPlanes is the paper's multi-plane fat-tree plane count
// (§5.1.1): eight independent network planes per deployment.
const defaultTotalPlanes = 8

// PlaneHazardEvent degrades (or heals) the EP communication bandwidth
// of one instance at a scheduled time: FailedPlanes of TotalPlanes
// network planes are lost, so the instance's all-to-all traffic crosses
// the survivors at TotalPlanes/(TotalPlanes-FailedPlanes) x the healthy
// duration — the serving-layer image of experiments.PlaneFailure.
type PlaneHazardEvent struct {
	At units.Seconds
	// Heal restores the instance to full bandwidth (FailedPlanes is
	// ignored); false degrades it.
	Heal     bool
	Prefill  bool
	Instance int
	// FailedPlanes is the number of lost planes (degrade only); must be
	// at least 1 and strictly below TotalPlanes.
	FailedPlanes int
	// TotalPlanes is the plane count of the deployment (default 8).
	TotalPlanes int
}

// commScale returns the comm-leg slowdown the event applies (1 for
// heal).
func (ev PlaneHazardEvent) commScale() float64 {
	if ev.Heal {
		return 1
	}
	t := ev.TotalPlanes
	if t <= 0 {
		t = defaultTotalPlanes
	}
	return float64(t) / float64(t-ev.FailedPlanes)
}

// DetectionConfig tunes router-side gray-failure detection: every
// decode instance's observed-vs-expected step-time ratio (observed
// step latency over the model's healthy-interconnect prediction at the
// same batch size) is EWMA-tracked and compared against the fleet
// median; a persistent straggler is drained. The zero value disables
// detection.
type DetectionConfig struct {
	// Threshold drains an instance whose EWMA step-time ratio exceeds
	// Threshold x the fleet median ratio (values <= 0 disable
	// detection; sensible values are > 1 — a healthy instance's ratio
	// is 1.0 at any occupancy).
	Threshold float64
	// EWMAAlpha is the smoothing factor in (0, 1]; 0 means the default
	// 0.2.
	EWMAAlpha float64
	// MinSteps is the warm-up: an instance (and the median pool) needs
	// this many steps before it can be judged; 0 means the default 8.
	MinSteps int
}

func (d DetectionConfig) enabled() bool { return d.Threshold > 0 }

func (d DetectionConfig) alpha() float64 {
	if d.EWMAAlpha > 0 {
		return d.EWMAAlpha
	}
	return 0.2
}

func (d DetectionConfig) minSteps() int {
	if d.MinSteps > 0 {
		return d.MinSteps
	}
	return 8
}

// HazardPlan composes the cross-layer hazards of one run: plane-failure
// bandwidth derates, silent data corruption with optional Freivalds
// verification, gray-failure detection, and quarantine repair. Nil (on
// ResilienceConfig) disables everything.
type HazardPlan struct {
	// Planes is the scheduled plane degrade/heal script.
	Planes []PlaneHazardEvent

	// SDCRate is the per-decode-step probability that an instance's step
	// silently corrupts its outputs (0 disables SDC injection).
	SDCRate float64
	// VerifyTrials enables a Freivalds verification pass on every decode
	// step: the step pays trials extra GEMV-equivalent passes of latency
	// and a corrupt step is detected with probability 1-2^-trials,
	// quarantining the instance and retrying its requests instead of
	// completing corrupt responses. 0 disables verification — corruption
	// propagates.
	VerifyTrials int

	// Detect tunes gray-failure detection (zero value: disabled).
	Detect DetectionConfig

	// QuarantineRepair returns an SDC-quarantined instance to service
	// after this dwell; 0 leaves it quarantined for the rest of the run.
	QuarantineRepair units.Seconds
}

// validate checks the plan against the resolved cluster shape.
func (h *HazardPlan) validate(nPrefill, nDecode int, colocated bool) error {
	for i, ev := range h.Planes {
		if ev.At < 0 || math.IsNaN(float64(ev.At)) || math.IsInf(float64(ev.At), 0) {
			return fmt.Errorf("servesim: plane hazard %d at invalid time %v", i, ev.At)
		}
		if ev.Prefill {
			if colocated {
				return fmt.Errorf("servesim: plane hazard %d targets a prefill instance but the cluster is colocated", i)
			}
			if ev.Instance < 0 || ev.Instance >= nPrefill {
				return fmt.Errorf("servesim: plane hazard %d targets prefill instance %d of %d", i, ev.Instance, nPrefill)
			}
		} else if ev.Instance < 0 || ev.Instance >= nDecode {
			return fmt.Errorf("servesim: plane hazard %d targets decode instance %d of %d", i, ev.Instance, nDecode)
		}
		if !ev.Heal {
			total := ev.TotalPlanes
			if total == 0 {
				total = defaultTotalPlanes
			}
			if total < 2 {
				return fmt.Errorf("servesim: plane hazard %d has %d total planes (want >= 2)", i, total)
			}
			if ev.FailedPlanes < 1 || ev.FailedPlanes >= total {
				return fmt.Errorf("servesim: plane hazard %d fails %d of %d planes (want 1..%d)", i, ev.FailedPlanes, total, total-1)
			}
		}
	}
	if h.SDCRate < 0 || h.SDCRate > 1 || math.IsNaN(h.SDCRate) {
		return fmt.Errorf("servesim: SDC rate %v outside [0,1]", h.SDCRate)
	}
	if h.VerifyTrials < 0 {
		return fmt.Errorf("servesim: negative verify trials %d", h.VerifyTrials)
	}
	if d := h.Detect; d.enabled() {
		if d.Threshold <= 1 {
			return fmt.Errorf("servesim: gray-detection threshold %v must exceed 1", d.Threshold)
		}
		if d.EWMAAlpha < 0 || d.EWMAAlpha > 1 {
			return fmt.Errorf("servesim: gray-detection EWMA alpha %v outside [0,1]", d.EWMAAlpha)
		}
		if d.MinSteps < 0 {
			return fmt.Errorf("servesim: negative gray-detection warm-up %d", d.MinSteps)
		}
	}
	if h.QuarantineRepair < 0 {
		return fmt.Errorf("servesim: negative quarantine repair %v", h.QuarantineRepair)
	}
	return nil
}

// HedgePolicy dispatches a speculative duplicate of a request that has
// not completed after a hedge delay: the copies race on distinct decode
// instances where possible, the first completion wins, and the loser is
// cancelled (its pages freed, its emitted tokens counted as wasted
// work). The zero value disables hedging.
type HedgePolicy struct {
	// Delay is the hedge trigger: a request still in flight this long
	// after arrival dispatches its duplicate. With TrackP95 it is the
	// floor (and the delay used until enough completions accumulate).
	Delay units.Seconds
	// TrackP95 adapts the delay to the observed p95 end-to-end latency
	// of completed requests (never below Delay) — the classic
	// tail-tolerant hedging trigger.
	TrackP95 bool
}

func (h HedgePolicy) enabled() bool { return h.Delay > 0 || h.TrackP95 }

// Validate checks the policy.
func (h HedgePolicy) Validate() error {
	if h.Delay < 0 || math.IsNaN(float64(h.Delay)) || math.IsInf(float64(h.Delay), 0) {
		return fmt.Errorf("servesim: invalid hedge delay %v", h.Delay)
	}
	if h.TrackP95 && h.Delay <= 0 {
		return fmt.Errorf("servesim: p95-tracked hedging needs a positive floor delay")
	}
	return nil
}

// Hedge race states (reqState.hstate).
const (
	hzNone int8 = iota
	// hzRacing: this copy is one side of a live hedge race.
	hzRacing
	// hzLost: the other copy won (or superseded this one); every
	// touchpoint drops a lost copy lazily, releasing its resources.
	hzLost
	// hzAbandoned (originals only): this copy's own execution failed
	// while its clone still races; the request's fate is the clone's.
	hzAbandoned
	// hzDone: the request resolved (completed or failed) — a late hedge
	// timer finds nothing to do.
	hzDone
)

// hazardState is the engine's per-run hazard machinery. Everything is
// engine-owned, recycled across runs, and allocated only when a plan is
// configured; a hazard-free run writes one bool.
type hazardState struct {
	on     bool
	detect bool    // gray-failure detection enabled
	sdc    float64 // per-step corruption probability
	// detectP is the Freivalds detection probability 1-2^-trials (0 when
	// verification is off).
	detectP float64
	// verifyFactor is the per-batch-slot verification latency numerator:
	// trials x 2 x activeNonEmbedding params (one GEMV-equivalent pass
	// per trial), divided by achieved FLOPS at charge time.
	verifyFactor float64
	repair       units.Seconds
	alpha        float64
	minSteps     int
	threshold    float64

	// Per-instance comm-leg slowdowns (1 = healthy).
	scaleP []float64 // prefill instances
	scaleD []float64 // decode instances

	// Gray-failure detection state per decode instance.
	ewma        []float64 // EWMA observed-vs-expected step-time ratio
	ewmaSteps   []int
	stepCost    []float64 // current step's observed/expected ratio (set at startStep)
	grayDrained []bool    // drained by detection (restored on plane heal)
	medScratch  []float64

	// Counters surfaced in the Report.
	corrupt     int // corrupt completed responses
	sdcSteps    int // silently corrupted steps (detected + not)
	sdcDetected int // detected-and-quarantined corrupt steps
	grayDrains  int
}

// hedgeState is the engine's per-run hedging machinery: the clone
// arena (pointer-stable across a run, recycled across runs) and the
// win/waste accounting.
type hedgeState struct {
	on       bool
	delay    units.Seconds
	trackP95 bool

	// clones is a pool of individually heap-allocated request states
	// reused across runs (hedge copies live outside the arena).
	clones  []*reqState
	nClones int

	// e2e is the sorted end-to-end latency record feeding the p95 delay.
	e2e []float64

	hedged int // duplicates dispatched
	wins   int // races won by the hedge copy
	// wasted is the tokens emitted by losing copies — discarded work.
	wasted int
}

// resetHazards re-initializes hazard and hedge state for a run. On the
// disabled path this writes two bools and leaves every buffer alone.
func (e *Engine) resetHazards(nPrefill, nDecode int) {
	hz := &e.hz
	plan := e.cfg.Resilience.Hazards
	hz.on = plan != nil
	hg := &e.hedge
	hg.on = e.cfg.Resilience.Hedge.enabled()
	// Counters zero unconditionally: a pooled engine may have run a
	// hazardous config before this one, and the report reads them
	// regardless of enablement.
	hz.corrupt, hz.sdcSteps, hz.sdcDetected, hz.grayDrains = 0, 0, 0, 0
	hg.hedged, hg.wins, hg.wasted = 0, 0, 0
	if !hz.on && !hg.on {
		return
	}
	if hz.on {
		hz.sdc = plan.SDCRate
		hz.detectP = 0
		hz.verifyFactor = 0
		if plan.VerifyTrials > 0 {
			hz.detectP = 1 - math.Pow(2, -float64(plan.VerifyTrials))
			hz.verifyFactor = float64(plan.VerifyTrials) * 2 * e.lc.activeNonEmbedding
		}
		hz.repair = plan.QuarantineRepair
		hz.detect = plan.Detect.enabled()
		hz.alpha = plan.Detect.alpha()
		hz.minSteps = plan.Detect.minSteps()
		hz.threshold = plan.Detect.Threshold
		hz.scaleP = growFloats(hz.scaleP, nPrefill)
		hz.scaleD = growFloats(hz.scaleD, nDecode)
		for i := range hz.scaleP {
			hz.scaleP[i] = 1
		}
		for i := range hz.scaleD {
			hz.scaleD[i] = 1
		}
		hz.ewma = growFloats(hz.ewma, nDecode)
		hz.stepCost = growFloats(hz.stepCost, nDecode)
		if cap(hz.ewmaSteps) < nDecode {
			hz.ewmaSteps = make([]int, nDecode)
			hz.grayDrained = make([]bool, nDecode)
		}
		hz.ewmaSteps = hz.ewmaSteps[:nDecode]
		hz.grayDrained = hz.grayDrained[:nDecode]
		for i := 0; i < nDecode; i++ {
			hz.ewma[i], hz.stepCost[i] = 0, 0
			hz.ewmaSteps[i] = 0
			hz.grayDrained[i] = false
		}
		if cap(hz.medScratch) < nDecode {
			hz.medScratch = make([]float64, 0, nDecode)
		}
	}
	if hg.on {
		hg.delay = e.cfg.Resilience.Hedge.Delay
		hg.trackP95 = e.cfg.Resilience.Hedge.TrackP95
		hg.nClones = 0
		for _, c := range hg.clones {
			*c = reqState{}
		}
		hg.e2e = hg.e2e[:0]
	}
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// commScaleD / commScaleP return the comm-leg slowdown of an instance
// (exactly 1 — a bit-exact multiplication identity — when hazards are
// off).
func (e *Engine) commScaleD(inst int) float64 {
	if !e.hz.on {
		return 1
	}
	return e.hz.scaleD[inst]
}

func (e *Engine) commScaleP(inst int) float64 {
	if !e.hz.on {
		return 1
	}
	return e.hz.scaleP[inst]
}

// scheduleHazards seeds the hazard RNG stream and schedules the plane
// script.
func (e *Engine) scheduleHazards() {
	plan := e.cfg.Resilience.Hazards
	if plan == nil {
		return
	}
	e.hazardReseed(parallel.DeriveSeed(e.cfg.Seed, 5))
	for i := range plan.Planes {
		e.schedule(plan.Planes[i].At, evHazard, i, nil)
	}
}

// applyHazard applies one plane degrade/heal event: the instance's comm
// scale changes and its health moves between up and degraded. A heal
// also restores a gray-drained instance and resets its detection state
// (the straggling had a known, now-removed cause).
func (e *Engine) applyHazard(i int) {
	ev := &e.cfg.Resilience.Hazards.Planes[i]
	hz := &e.hz
	scale := ev.commScale()
	if ev.Prefill {
		p := &e.prefills[ev.Instance]
		hz.scaleP[ev.Instance] = scale
		if ev.Heal {
			if p.health == healthDegraded {
				e.trIncident(true, ev.Instance, "heal")
				e.noteHealth(healthDegraded, healthUp)
				p.health = healthUp
			}
		} else if p.health == healthUp {
			e.trIncident(true, ev.Instance, "degrade")
			e.noteHealth(healthUp, healthDegraded)
			p.health = healthDegraded
		}
		e.recountIdlePrefills()
		return
	}
	d := &e.decodes[ev.Instance]
	hz.scaleD[ev.Instance] = scale
	if ev.Heal {
		switch {
		case d.health == healthDegraded:
			e.trIncident(false, ev.Instance, "heal")
			e.noteHealth(healthDegraded, healthUp)
			d.health = healthUp
		case hz.grayDrained[ev.Instance] && d.health == healthDraining:
			// The detector drained this straggler; with the plane healed
			// the cause is gone — return it to service.
			e.trIncident(false, ev.Instance, "heal")
			e.noteHealth(healthDraining, healthUp)
			d.health = healthUp
		}
		hz.grayDrained[ev.Instance] = false
		hz.ewma[ev.Instance] = 0
		hz.ewmaSteps[ev.Instance] = 0
		if !d.stepping && !d.prefilling {
			e.startStep(ev.Instance)
		}
	} else if d.health == healthUp {
		e.trIncident(false, ev.Instance, "degrade")
		e.noteHealth(healthUp, healthDegraded)
		d.health = healthDegraded
	}
}

// verifyCost is the Freivalds verification latency charged onto one
// decode step: trials GEMV-equivalent passes over the active batch
// (O(n²) per gemm.VerifyGEMM — one extra matrix-vector product per
// trial), against the achieved compute roofline.
func (e *Engine) verifyCost(batch int) units.Seconds {
	if !e.hz.on || e.hz.verifyFactor == 0 {
		return 0
	}
	return units.Seconds(e.hz.verifyFactor * float64(batch) / e.lc.peak)
}

// sdcStep draws this step's corruption outcome for an instance.
// Returns (corrupted, detected): a detected corruption quarantines the
// instance; an undetected one taints every active request. At most two
// draws per corrupt step, one per clean step, always in the same order
// — the stream is a pure function of the event sequence.
func (e *Engine) sdcStep() (corrupt, detected bool) {
	hz := &e.hz
	if !hz.on || hz.sdc == 0 {
		return false, false
	}
	if e.hazardRng.Float64() >= hz.sdc {
		return false, false
	}
	hz.sdcSteps++
	if hz.detectP > 0 && e.hazardRng.Float64() < hz.detectP {
		hz.sdcDetected++
		return true, true
	}
	return true, false
}

// quarantine takes a decode instance out of service after a detected
// SDC: active, pending, reloading and in-flight-prefill requests are
// orphaned into the retry path (their outputs cannot be trusted), the
// KV pool is freed wholesale, and the instance waits for an optional
// repair. Structurally a crash with a different health terminal and an
// "sdc" incident kind.
func (e *Engine) quarantine(inst int) {
	d := &e.decodes[inst]
	e.trIncident(false, inst, "quarantine")
	inc := Incident{At: e.now, Instance: inst, Kind: "sdc"}
	for _, req := range d.active {
		inc.Orphaned++
		inc.KVTokensLost += req.ctx
		e.orphan(req)
	}
	clearPtrs(d.active)
	d.active = d.active[:0]
	for _, req := range d.reloads {
		inc.Orphaned++
		inc.KVTokensLost += req.ctx
		e.orphan(req)
	}
	clearPtrs(d.reloads)
	d.reloads = d.reloads[:0]
	for d.pending.len() > 0 {
		inc.Orphaned++
		e.orphan(d.pending.pop())
	}
	d.pending.reset()
	if d.prefilling && d.prefillReq != nil {
		inc.Orphaned++
		inc.KVTokensLost += d.prefillReq.ctxForPrefill()
		e.orphan(d.prefillReq)
	}
	d.prefillReq = nil
	d.prefilling = false
	d.stepping = false
	d.kv.used = 0
	d.epoch++
	e.noteHealth(d.health, healthQuarantined)
	d.health = healthQuarantined
	e.kvLost += inc.KVTokensLost
	e.incidents = append(e.incidents, inc)
	if e.hz.repair > 0 {
		e.schedule(e.now+e.hz.repair, evFaultRecover, inst, nil)
	}
}

// noteStepEWMA folds a completed step's observed-vs-expected time
// ratio into the instance's gray-failure tracker and drains the
// instance if its EWMA stands out against the fleet median.
func (e *Engine) noteStepEWMA(inst int) {
	hz := &e.hz
	if !hz.on || !hz.detect {
		return
	}
	x := hz.stepCost[inst]
	if x <= 0 {
		return
	}
	if hz.ewmaSteps[inst] == 0 {
		hz.ewma[inst] = x
	} else {
		hz.ewma[inst] = hz.alpha*x + (1-hz.alpha)*hz.ewma[inst]
	}
	hz.ewmaSteps[inst]++
	d := &e.decodes[inst]
	if hz.ewmaSteps[inst] < hz.minSteps || hz.grayDrained[inst] || !d.health.servable() {
		return
	}
	// Fleet median over warmed-up, servable instances. Fewer than two
	// eligible peers means no basis for comparison.
	med := hz.medScratch[:0]
	for i := range e.decodes {
		if hz.ewmaSteps[i] >= hz.minSteps && e.decodes[i].health.servable() {
			med = append(med, hz.ewma[i])
		}
	}
	hz.medScratch = med
	if len(med) < 2 {
		return
	}
	sort.Float64s(med)
	median := med[(len(med)-1)/2]
	if median <= 0 || hz.ewma[inst] <= hz.threshold*median {
		return
	}
	e.trIncident(false, inst, "gray-drain")
	e.noteHealth(d.health, healthDraining)
	d.health = healthDraining
	hz.grayDrained[inst] = true
	hz.grayDrains++
	e.incidents = append(e.incidents, Incident{At: e.now, Instance: inst, Kind: "gray-drain"})
}

// hedgeDelay resolves the hedge trigger for a request arriving now:
// the fixed delay, lifted to the observed p95 end-to-end latency once
// enough completions have accumulated.
func (e *Engine) hedgeDelay() units.Seconds {
	hg := &e.hedge
	d := hg.delay
	if hg.trackP95 && len(hg.e2e) >= 16 {
		if p := units.Seconds(hg.e2e[(len(hg.e2e)-1)*95/100]); p > d {
			d = p
		}
	}
	return d
}

// noteHedgeE2E records a completion's end-to-end latency for the p95
// tracker (sorted insert into an engine-owned buffer).
func (e *Engine) noteHedgeE2E(lat units.Seconds) {
	hg := &e.hedge
	if !hg.on || !hg.trackP95 {
		return
	}
	x := float64(lat)
	i := sort.SearchFloat64s(hg.e2e, x)
	hg.e2e = append(hg.e2e, 0)
	copy(hg.e2e[i+1:], hg.e2e[i:])
	hg.e2e[i] = x
}

// hedgeFire triggers one request's hedge timer: if the request is
// still unresolved and unhedged, a clone enters prefill dispatch and
// the two copies race.
func (e *Engine) hedgeFire(req *reqState) {
	if req.hstate != hzNone {
		return
	}
	hg := &e.hedge
	var c *reqState
	if hg.nClones < len(hg.clones) {
		c = hg.clones[hg.nClones]
	} else {
		c = &reqState{}
		hg.clones = append(hg.clones, c)
	}
	hg.nClones++
	*c = reqState{Request: req.Request, isClone: true, inst: -1}
	c.twin = req
	c.hstate = hzRacing
	req.twin = c
	req.hstate = hzRacing
	hg.hedged++
	e.trMark(req, obs.MarkHedge)
	e.prefillQ.push(c)
}

// hedgeDrop finalizes a losing copy at a touchpoint: its emitted
// tokens are discarded work. Pages (if any) are the caller's to
// release — queue-resident copies hold none.
func (e *Engine) hedgeDrop(req *reqState) {
	e.hedge.wasted += req.generated
	req.hstate = hzDone
}

// hedgeWin settles the race when one copy completes: the loser is
// marked for lazy cancellation at its next touchpoint, and the winner
// — clone or original, whichever finished first — becomes the
// request's completion record. The user-visible first token is the
// earlier of the two copies' (both stream until cancellation).
func (e *Engine) hedgeWin(winner *reqState) {
	loser := winner.twin
	if winner.isClone {
		e.hedge.wins++
		e.trMark(loser, obs.MarkHedgeWin)
	}
	if loser.generated > 0 && loser.firstToken < winner.firstToken {
		winner.firstToken = loser.firstToken
	}
	switch loser.hstate {
	case hzRacing:
		loser.hstate = hzLost
	case hzAbandoned:
		// The loser's own execution already failed; nothing remains to
		// cancel.
		loser.hstate = hzDone
	}
}

// hedgeSweep charges the wasted work of copies still marked lost when
// the run terminates (their lazy-drop touchpoint never fired because
// every arena request had already resolved).
func (e *Engine) hedgeSweep() {
	hg := &e.hedge
	if !hg.on {
		return
	}
	for _, c := range hg.clones[:hg.nClones] {
		if c.hstate == hzLost {
			e.hedgeDrop(c)
		}
	}
}

// hedgeOrphanAbsorbed handles a racing copy whose own execution just
// failed terminally (retry budget exhausted): while its twin still
// races the request is not yet failed — the dying copy is absorbed and
// the twin carries the request alone. Returns true when absorbed;
// false means the request has truly failed.
func (e *Engine) hedgeOrphanAbsorbed(req *reqState) bool {
	twin := req.twin
	if req.hstate != hzRacing || twin == nil || twin.hstate != hzRacing {
		return false
	}
	e.hedge.wasted += req.generated
	if req.isClone {
		// The clone dissolves; the original runs on alone.
		req.hstate = hzDone
		twin.hstate = hzNone
		twin.twin = nil
		return true
	}
	// The original's execution died but its clone races on; the clone's
	// outcome becomes the request's outcome.
	req.hstate = hzAbandoned
	return true
}

// ParseHazardEvents reads the CLI plane-hazard syntax: comma-separated
// "degrade@seconds:target:k[/T]" and "heal@seconds:target" items, where
// target is dN, pN, or a dN-M / pN-M range, k is the failed plane count
// and T the total plane count (default 8) — e.g.
// "degrade@4:d1:2,degrade@4:d2-3:1/8,heal@20:d1".
func ParseHazardEvents(s string) ([]PlaneHazardEvent, error) {
	var out []PlaneHazardEvent
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		fields := strings.Split(item, ":")
		kindStr, atStr, ok := strings.Cut(fields[0], "@")
		if !ok {
			return nil, fmt.Errorf("servesim: hazard %q: want kind@seconds:target[:planes]", item)
		}
		var heal bool
		switch strings.TrimSpace(kindStr) {
		case "degrade":
		case "heal":
			heal = true
		default:
			return nil, fmt.Errorf("servesim: hazard %q: unknown kind %q (want degrade or heal)", item, kindStr)
		}
		at, err := strconv.ParseFloat(strings.TrimSpace(atStr), 64)
		if err != nil {
			return nil, fmt.Errorf("servesim: hazard %q: bad time: %w", item, err)
		}
		if math.IsNaN(at) || math.IsInf(at, 0) {
			return nil, fmt.Errorf("servesim: hazard %q: non-finite time", item)
		}
		want := 3
		if heal {
			want = 2
		}
		if len(fields) != want {
			return nil, fmt.Errorf("servesim: hazard %q: want %d ':'-separated parts", item, want)
		}
		lo, hi, prefill, err := parseInstRange(item, strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, err
		}
		failed, total := 0, 0
		if !heal {
			kStr, tStr, hasTotal := strings.Cut(strings.TrimSpace(fields[2]), "/")
			if failed, err = strconv.Atoi(strings.TrimSpace(kStr)); err != nil {
				return nil, fmt.Errorf("servesim: hazard %q: bad plane count %q: %w", item, kStr, err)
			}
			if hasTotal {
				if total, err = strconv.Atoi(strings.TrimSpace(tStr)); err != nil {
					return nil, fmt.Errorf("servesim: hazard %q: bad total planes %q: %w", item, tStr, err)
				}
			}
		}
		for inst := lo; inst <= hi; inst++ {
			out = append(out, PlaneHazardEvent{
				At: units.Seconds(at), Heal: heal, Prefill: prefill,
				Instance: inst, FailedPlanes: failed, TotalPlanes: total,
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("servesim: empty hazard script %q", s)
	}
	return out, nil
}

// parseInstRange reads a dN / pN / dN-M / pN-M instance target.
func parseInstRange(item, target string) (lo, hi int, prefill bool, err error) {
	if len(target) < 2 || (target[0] != 'd' && target[0] != 'p') {
		return 0, 0, false, fmt.Errorf("servesim: hazard %q: bad target %q (want dN, pN, dN-M, or pN-M)", item, target)
	}
	prefill = target[0] == 'p'
	loStr, hiStr, isRange := strings.Cut(target[1:], "-")
	if lo, err = strconv.Atoi(loStr); err != nil {
		return 0, 0, false, fmt.Errorf("servesim: hazard %q: bad target %q: %w", item, target, err)
	}
	hi = lo
	if isRange {
		if hi, err = strconv.Atoi(hiStr); err != nil {
			return 0, 0, false, fmt.Errorf("servesim: hazard %q: bad target %q: %w", item, target, err)
		}
		if hi < lo {
			return 0, 0, false, fmt.Errorf("servesim: hazard %q: inverted range %q", item, target)
		}
	}
	return lo, hi, prefill, nil
}

// ParseHedgePolicy reads the CLI hedge spec: a fixed delay in seconds
// ("0.5"), or "p95:floor" for p95-tracked delays with the given floor
// ("p95:0.3").
func ParseHedgePolicy(s string) (HedgePolicy, error) {
	s = strings.TrimSpace(s)
	var h HedgePolicy
	if rest, ok := strings.CutPrefix(s, "p95:"); ok {
		h.TrackP95 = true
		s = rest
	} else if s == "p95" {
		return HedgePolicy{}, fmt.Errorf("servesim: hedge %q: p95 tracking needs a floor (p95:seconds)", s)
	}
	d, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return HedgePolicy{}, fmt.Errorf("servesim: hedge delay %q: %w", s, err)
	}
	h.Delay = units.Seconds(d)
	if err := h.Validate(); err != nil {
		return HedgePolicy{}, err
	}
	if !h.enabled() {
		return HedgePolicy{}, fmt.Errorf("servesim: hedge delay must be positive, got %v", h.Delay)
	}
	return h, nil
}
