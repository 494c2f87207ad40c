package servesim

import (
	"dsv3/internal/obs"
	"dsv3/internal/units"
)

// This file is the engine's entire coupling to the observability
// layer: two attach points plus nil-checked hook wrappers. With
// nothing attached every wrapper is one pointer comparison, so the
// disabled path executes the same instruction stream — and the same
// zero per-event allocations — as an engine built before internal/obs
// existed. Hooks fire at the engine's current simulated time inside
// the single-threaded event loop, which gives the tracer its ordering
// and determinism guarantees for free.
//
// Phase discipline: transitions always end the previous phase and
// begin the next at the same e.now, so a request's per-phase durations
// telescope exactly to its end-to-end latency (the reconciliation
// invariant trace_test.go pins).

// AttachTracer installs a request-lifecycle tracer on the engine (nil
// detaches). The tracer is reset (BeginRun) at the start of every Run,
// so one tracer follows one engine across pooled runs. Attach points
// live on the Engine, not the Config: configs are copied per sweep
// point, and a shared tracer pointer inside them would alias state
// across parallel workers.
func (e *Engine) AttachTracer(t obs.Tracer) { e.tracer = t }

// AttachMetrics installs a time-series metrics registry (nil
// detaches). Each Run resets the registry, registers the engine's
// metric set, and samples it on the registry's cadence.
func (e *Engine) AttachMetrics(m *obs.Registry) { e.metrics = m }

// metricIdx holds the registry column indices the engine fills each
// sample. Tier slices are engine-owned and recycled across runs.
type metricIdx struct {
	queue, batch, kvOcc, healthy               int
	completed, failed, shed, retries, preempts int
	offloads, reloads                          int
	sdcSteps, sdcDetected, grayDrains          int
	hedges, hedgeWins                          int
	tierOcc, tierIn, tierOut                   []int
}

func reqInfo(r *reqState) obs.ReqInfo {
	return obs.ReqInfo{
		ID:           r.ID,
		Session:      r.Session,
		PromptTokens: r.PromptTokens,
		OutputTokens: r.OutputTokens,
	}
}

// Hedge clones share their original's request ID, so their phase and
// mark hooks are suppressed: one ID must carry one phase timeline for
// the reconciliation invariant to hold. Hedge-specific marks (hedge,
// hedge-win, corrupt) fire on the arena original; clone compute still
// shows up in the per-instance compute slices, where it belongs.

func (e *Engine) trPhaseBegin(req *reqState, ph obs.Phase, inst int) {
	if e.tracer != nil && !req.isClone {
		e.tracer.PhaseBegin(e.now, reqInfo(req), ph, inst)
	}
}

func (e *Engine) trPhaseEnd(req *reqState) {
	if e.tracer != nil && !req.isClone {
		e.tracer.PhaseEnd(e.now, req.ID)
	}
}

func (e *Engine) trMark(req *reqState, m obs.Mark) {
	if e.tracer != nil && !req.isClone {
		e.tracer.Mark(e.now, reqInfo(req), m)
	}
}

func (e *Engine) trCompute(dur units.Seconds, prefill bool, inst int, kind obs.ComputeKind, v int) {
	if e.tracer != nil {
		e.tracer.Compute(e.now, dur, prefill, inst, kind, v)
	}
}

func (e *Engine) trIncident(prefill bool, inst int, kind string) {
	if e.tracer != nil {
		e.tracer.Incident(e.now, prefill, inst, kind)
	}
}

// obsBeginRun resets the attached tracer and registry for a new run
// and registers the engine's metric set. Called once per Run after the
// fleet shape is known; a no-op when nothing is attached.
func (e *Engine) obsBeginRun(nPrefill, nDecode int) {
	if e.tracer != nil {
		e.tracer.BeginRun(obs.RunInfo{
			Prefill:   nPrefill,
			Decode:    nDecode,
			Colocated: e.cfg.Fleet.Colocated,
		})
	}
	m := e.metrics
	if m == nil {
		return
	}
	m.Reset()
	mi := &e.mi
	mi.queue = m.Gauge("queue_depth", "req")
	mi.batch = m.Gauge("running_batch", "req")
	mi.kvOcc = m.Gauge("kv_occupancy", "frac")
	mi.healthy = m.Gauge("healthy_instances", "inst")
	mi.completed = m.Counter("completed", "req")
	mi.failed = m.Counter("failed", "req")
	mi.shed = m.Counter("shed", "req")
	mi.retries = m.Counter("retries", "")
	mi.preempts = m.Counter("preemptions", "")
	if e.hz.on {
		mi.sdcSteps = m.Counter("sdc_steps", "")
		mi.sdcDetected = m.Counter("sdc_detected", "")
		mi.grayDrains = m.Counter("gray_drains", "")
	}
	if e.hedge.on {
		mi.hedges = m.Counter("hedges", "")
		mi.hedgeWins = m.Counter("hedge_wins", "")
	}
	mi.tierOcc = mi.tierOcc[:0]
	mi.tierIn = mi.tierIn[:0]
	mi.tierOut = mi.tierOut[:0]
	if e.hier.on {
		mi.offloads = m.Counter("kv_offloads", "")
		mi.reloads = m.Counter("kv_reloads", "")
		for i := range e.cfg.KV.Tiers {
			label := e.cfg.KV.Tiers[i].label(i)
			mi.tierOcc = append(mi.tierOcc, m.Gauge(label+"_occupancy", "frac"))
			mi.tierIn = append(mi.tierIn, m.Counter(label+"_bytes_in", "B"))
			mi.tierOut = append(mi.tierOut, m.Counter(label+"_bytes_out", "B"))
		}
	}
}

// obsEndRun closes the trace at the final simulated time.
func (e *Engine) obsEndRun() {
	if e.tracer != nil {
		e.tracer.EndRun(e.now)
	}
}

// metricsUpTo commits one metrics sample for every registry grid
// instant that has passed. Like sampleUpTo, state is constant between
// events, so carrying the current snapshot onto the grid is exact.
func (e *Engine) metricsUpTo(t units.Seconds) {
	m := e.metrics
	if m == nil {
		return
	}
	for {
		ts, ok := m.Due(t)
		if !ok {
			return
		}
		e.fillMetrics(m.Scratch())
		m.Commit(ts)
	}
}

// fillMetrics snapshots the engine into one registry sample row.
func (e *Engine) fillMetrics(row []units.Seconds) {
	mi := &e.mi
	batch, used, total := e.fleetSnapshot()
	row[mi.queue] = float64(e.prefillQ.len())
	row[mi.batch] = float64(batch)
	if total > 0 {
		row[mi.kvOcc] = float64(used) / float64(total)
	}
	healthy := 0
	for i := range e.prefills {
		if e.prefills[i].health == healthUp {
			healthy++
		}
	}
	for i := range e.decodes {
		if e.decodes[i].health == healthUp {
			healthy++
		}
	}
	row[mi.healthy] = float64(healthy)
	row[mi.completed] = float64(e.completed)
	row[mi.failed] = float64(len(e.failed))
	row[mi.shed] = float64(e.shed)
	row[mi.retries] = float64(e.retries)
	row[mi.preempts] = float64(e.preempts)
	if e.hz.on {
		row[mi.sdcSteps] = float64(e.hz.sdcSteps)
		row[mi.sdcDetected] = float64(e.hz.sdcDetected)
		row[mi.grayDrains] = float64(e.hz.grayDrains)
	}
	if e.hedge.on {
		row[mi.hedges] = float64(e.hedge.hedged)
		row[mi.hedgeWins] = float64(e.hedge.wins)
	}
	if e.hier.on {
		h := &e.hier
		row[mi.offloads] = float64(h.offloads)
		row[mi.reloads] = float64(h.reloads)
		for i := range mi.tierOcc {
			if c := h.caps[i]; c > 0 {
				row[mi.tierOcc[i]] = float64(h.used[i]) / float64(c)
			}
			row[mi.tierIn[i]] = h.bytesIn[i+1]
			row[mi.tierOut[i]] = h.bytesOut[i+1]
		}
	}
}
