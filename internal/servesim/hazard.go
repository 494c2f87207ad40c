// Cross-layer hazards: substrate faults mapped into the serving-layer
// fault model instead of being injected directly (ROADMAP's composed-
// faults clause). A plane failure (§5.1.1) does not kill an instance —
// it derates the EP all-to-all bandwidth of the instances riding the
// degraded planes, so their decode/prefill steps slow proportionally
// (the netsim bandwidth ratio T/(T-k) applied to the comm leg of the
// latency model). Plane loss is scheduled like any other incident, as
// a FaultDegrade/FaultHeal event of the FaultPlan (fault.go).
//
// Silent data corruption (§6.1.2) does not raise an error — it
// corrupts a step's outputs, which either propagates into a corrupt
// completed response or, with a Freivalds-style verification pass
// (cost charged into every step per gemm.VerifyGEMM's O(n²) model), is
// caught with probability 1-2^-trials and converted into a retryable
// fault plus an instance quarantine.
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
	"dsv3/internal/units"
)

// Gray-failure detection tracks every decode instance's EWMA
// observed-vs-expected step-time ratio with smoothing detectAlpha; an
// instance (and the median pool) needs detectMinSteps steps before it
// can be judged.
const (
	detectAlpha    = 0.2
	detectMinSteps = 8
)

// HazardPlan composes the cross-layer hazards of one run: silent data
// corruption with optional Freivalds verification, gray-failure
// detection, and quarantine repair. Nil (on ResilienceConfig) disables
// everything. Plane degrade/heal events belong to the FaultPlan.
type HazardPlan struct {
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

	// DetectThreshold enables router-side gray-failure detection: every
	// decode instance's observed-vs-expected step-time ratio (observed
	// step latency over the model's healthy-interconnect prediction at
	// the same batch size) is EWMA-tracked, and an instance whose EWMA
	// exceeds DetectThreshold x the fleet median ratio is drained.
	// Values <= 0 disable detection; enabled values must exceed 1 — a
	// healthy instance's ratio is 1.0 at any occupancy.
	DetectThreshold float64

	// QuarantineRepair returns an SDC-quarantined instance to service
	// after this dwell; 0 leaves it quarantined for the rest of the run.
	QuarantineRepair units.Seconds
}

// validate checks the plan.
func (h *HazardPlan) validate() error {
	if h.SDCRate < 0 || h.SDCRate > 1 || math.IsNaN(h.SDCRate) {
		return fmt.Errorf("servesim: SDC rate %v outside [0,1]", h.SDCRate)
	}
	if h.VerifyTrials < 0 {
		return fmt.Errorf("servesim: negative verify trials %d", h.VerifyTrials)
	}
	if t := h.DetectThreshold; !units.Finite(t) || (t > 0 && t <= 1) {
		return fmt.Errorf("servesim: gray-detection threshold %v must exceed 1 (or be <= 0 to disable)", t)
	}
	if h.QuarantineRepair < 0 || !units.Finite(h.QuarantineRepair) {
		return fmt.Errorf("servesim: negative or non-finite quarantine repair %v", h.QuarantineRepair)
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
	detect bool // gray-failure detection enabled
	// detectP is the Freivalds detection probability 1-2^-trials (0 when
	// verification is off).
	detectP float64
	// verifyFactor is the per-batch-slot verification latency numerator:
	// trials x 2 x activeNonEmbedding params (one GEMV-equivalent pass
	// per trial), divided by achieved FLOPS at charge time.
	verifyFactor float64

	// Gray-failure detection state per decode instance.
	ewma        []float64 // EWMA observed-vs-expected step-time ratio
	ewmaSteps   []int
	stepCost    []float64 // current step's observed/expected ratio (set at startStep)
	grayDrained []bool    // drained by detection (restored on heal)
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
	on bool

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
func (e *Engine) resetHazards(nDecode int) {
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
		hz.detectP = 0
		hz.verifyFactor = 0
		if plan.VerifyTrials > 0 {
			hz.detectP = 1 - math.Pow(2, -float64(plan.VerifyTrials))
			hz.verifyFactor = float64(plan.VerifyTrials) * 2 * e.lc.activeNonEmbedding
		}
		hz.detect = plan.DetectThreshold > 0
		hz.ewma, hz.stepCost = zeroed(hz.ewma, nDecode), zeroed(hz.stepCost, nDecode)
		hz.ewmaSteps, hz.grayDrained = zeroed(hz.ewmaSteps, nDecode), zeroed(hz.grayDrained, nDecode)
		if cap(hz.medScratch) < nDecode {
			hz.medScratch = make([]float64, 0, nDecode)
		}
	}
	if hg.on {
		hg.nClones = 0
		for _, c := range hg.clones {
			*c = reqState{}
		}
		hg.e2e = hg.e2e[:0]
	}
}

// forgetStraggler clears an instance's gray-failure record after a
// recover or heal: the slowdown had a known, now-removed cause, and
// stale EWMA state must not re-drain the instance on its first steps
// back.
func (e *Engine) forgetStraggler(inst int) {
	if hz := &e.hz; hz.on {
		hz.grayDrained[inst] = false
		hz.ewma[inst] = 0
		hz.ewmaSteps[inst] = 0
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
	if !hz.on {
		return false, false
	}
	sdc := e.cfg.Resilience.Hazards.SDCRate
	if sdc == 0 || e.hazardRng.Float64() >= sdc {
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
// SDC: everything it holds is orphaned into the retry path (the
// outputs cannot be trusted) exactly as in a crash, but the instance
// lands in healthQuarantined with an "sdc" incident and waits for an
// optional repair.
func (e *Engine) quarantine(inst int) {
	e.takeDown(false, inst, healthQuarantined, "quarantine", "sdc")
	e.scheduleRecover(false, inst, e.cfg.Resilience.Hazards.QuarantineRepair)
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
		hz.ewma[inst] = detectAlpha*x + (1-detectAlpha)*hz.ewma[inst]
	}
	hz.ewmaSteps[inst]++
	d := &e.decodes[inst]
	if hz.ewmaSteps[inst] < detectMinSteps || hz.grayDrained[inst] || !d.health.servable() {
		return
	}
	// Fleet median over warmed-up, servable instances. Fewer than two
	// eligible peers means no basis for comparison.
	med := hz.medScratch[:0]
	e.work.scans += len(e.decodes)
	for i := range e.decodes {
		if hz.ewmaSteps[i] >= detectMinSteps && e.decodes[i].health.servable() {
			med = append(med, hz.ewma[i])
		}
	}
	hz.medScratch = med
	if len(med) < 2 {
		return
	}
	sort.Float64s(med)
	median := med[(len(med)-1)/2]
	if median <= 0 || hz.ewma[inst] <= e.cfg.Resilience.Hazards.DetectThreshold*median {
		return
	}
	e.trIncident(false, inst, "gray-drain")
	e.setHealth(false, inst, healthDraining)
	hz.grayDrained[inst] = true
	hz.grayDrains++
	e.incidents = append(e.incidents, Incident{At: e.now, Instance: inst, Kind: "gray-drain"})
}

// hedgeDelay resolves the hedge trigger for a request arriving now:
// the fixed delay, lifted to the observed p95 end-to-end latency once
// enough completions have accumulated.
func (e *Engine) hedgeDelay() units.Seconds {
	hg, pol := &e.hedge, e.cfg.Resilience.Hedge
	d := pol.Delay
	if pol.TrackP95 && len(hg.e2e) >= 16 {
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
	if !hg.on || !e.cfg.Resilience.Hedge.TrackP95 {
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
