package servesim

import (
	"slices"
	"sort"

	"dsv3/internal/stats"
	"dsv3/internal/units"
)

// timelineSamples is the nominal number of batch/KV-occupancy timeline
// points a run records. The grid is sized from the estimated horizon,
// so a short makespan records fewer points; the buffer is capped at
// 4*timelineSamples, and when an overloaded makespan would overflow it
// the sampler halves resolution in place (decimate + double the
// stride) so the timeline always spans the full run.
const timelineSamples = 64

// TimelinePoint is one sampled instant of cluster state.
type TimelinePoint struct {
	Time units.Seconds
	// ActiveBatch is the total decode batch across instances.
	ActiveBatch int
	// KVOccupancy is the used fraction of all KV pools.
	KVOccupancy float64
}

// Report is the request-level outcome of one simulation run. All
// fields are deterministic functions of (Config, Workload, Seed);
// encoding a Report as JSON is byte-stable across runs.
type Report struct {
	// Requests is the offered traffic; Completed the requests that
	// finished (Requests = Completed + Failed + Shed).
	Requests  int
	Completed int
	// Preemptions counts KV-exhaustion evictions (recompute restarts).
	Preemptions int

	// Failure and degradation metrics — all zero on a fault-free run
	// with admission disabled. Failed requests exhausted their retry
	// budget after crash orphaning; Shed requests were rejected at
	// arrival by the admission policy; Retried counts requests that
	// retried at least once and Retries the total retry attempts.
	Failed  int
	Shed    int
	Retried int
	Retries int
	// RetryAmplification is prefill dispatches per admitted request —
	// (admitted + retries) / admitted; 1.0 means no retry traffic.
	RetryAmplification float64
	// KVTokensLost is the KV-resident context destroyed by crashes, in
	// tokens; AffectedRequests the requests orphaned by crashes or
	// dead hand-offs.
	KVTokensLost     int
	AffectedRequests int
	// Incidents records each crash's blast radius and recovery time.
	Incidents []Incident
	// Cross-layer hazard metrics (hazard.go) — all zero unless
	// Resilience.Hazards is set. CorruptSteps counts silently corrupted
	// decode steps; SDCDetected those the Freivalds pass caught (each
	// quarantining its instance); CorruptResponses completed responses
	// tainted by undetected corruption (never SLO-good); GrayDrained
	// the straggler instances the EWMA detector drained.
	CorruptSteps     int
	SDCDetected      int
	CorruptResponses int
	GrayDrained      int
	// Hedging metrics (zero unless Resilience.Hedge is set): duplicates
	// dispatched, races the duplicate won, and tokens emitted by losing
	// copies — the discarded work the tail-latency win costs.
	Hedges            int
	HedgeWins         int
	HedgeWastedTokens int
	// SLOHealthy and SLOFaulted split SLO attainment by the fleet state
	// at arrival: requests arriving with every instance up vs during a
	// degraded span (an instance down or draining). Failed requests
	// count against their epoch; both are 0 when the epoch saw no
	// admitted requests.
	SLOHealthy float64
	SLOFaulted float64
	// DroppedSamples counts non-finite TTFT, TPOT and E2E latency
	// samples (0 in any healthy run). They are still included in the
	// summaries, so a non-zero count flags summaries that are NaN or Inf.
	DroppedSamples int
	// Makespan is the completion time of the last request.
	Makespan units.Seconds
	// OfferedRate is requests / last arrival; CompletedRate is
	// requests / makespan.
	OfferedRate   float64
	CompletedRate float64

	// TTFT, TPOT and E2E summarize per-request latency in seconds
	// (TPOT over requests with at least two output tokens).
	TTFT stats.Summary
	TPOT stats.Summary
	E2E  stats.Summary

	// GoodputRPS is completed-within-SLO requests per second of
	// makespan; SLOAttainment the within-SLO fraction of completions.
	GoodputRPS    float64
	SLOAttainment float64

	// MeanBatch is the decode batch averaged over steps; TokensPerStep
	// the tokens emitted per batch slot per decode step (1.0 exactly
	// without MTP, the speculative multiplier with it).
	MeanBatch     float64
	TokensPerStep float64
	DecodeSteps   int

	// PeakKVOccupancy is the high-water mark across allocations;
	// MeanKVOccupancy averages the sampled timeline.
	PeakKVOccupancy float64
	MeanKVOccupancy float64

	// Tiered-KV metrics — all zero (and KVTierMoves nil) when
	// Config.KV.Tiers is empty. KVOffloads counts preemption victims
	// whose KV moved down-tier instead of recomputing; KVReloads the
	// transfers back into HBM; TierDemotions/TierDrops the LRU
	// evictions within the hierarchy; ReloadStall the total time
	// requests waited on below-HBM transfers beyond overlapped compute.
	KVOffloads    int
	KVReloads     int
	TierDemotions int
	TierDrops     int
	ReloadStall   units.Seconds
	// Prefix-cache accounting: hits/misses count session lookups at
	// prefill dispatch; PrefixHitTokens is the total prompt tokens
	// whose prefill was skipped.
	PrefixHits      int
	PrefixMisses    int
	PrefixHitTokens int
	// KVTierMoves is the per-level traffic (level 0 = HBM, then the
	// configured tiers in order).
	KVTierMoves []TierStat

	Timeline []TimelinePoint
}

// report assembles the Report after the event loop drains. The latency
// samples live in one engine scratch vector, filled in ID order for
// TTFT, then refilled for TPOT, then for E2E; each percentile summary
// reorders it in place. Only the Report itself (and its Timeline copy —
// the sample buffer is recycled) is allocated.
func (e *Engine) report() *Report {
	r := &Report{
		Requests:         len(e.arena),
		Completed:        e.completed,
		Preemptions:      e.preempts,
		Failed:           len(e.failed),
		Shed:             e.shed,
		Retried:          e.retried,
		Retries:          e.retries,
		KVTokensLost:     e.kvLost,
		AffectedRequests: e.affected,
		DecodeSteps:      e.steps,
		PeakKVOccupancy:  e.peakOcc,

		CorruptSteps:      e.hz.sdcSteps,
		SDCDetected:       e.hz.sdcDetected,
		CorruptResponses:  e.hz.corrupt,
		GrayDrained:       e.hz.grayDrains,
		Hedges:            e.hedge.hedged,
		HedgeWins:         e.hedge.wins,
		HedgeWastedTokens: e.hedge.wasted,
	}
	if admitted := r.Requests - r.Shed; admitted > 0 {
		r.RetryAmplification = float64(admitted+r.Retries) / float64(admitted)
	}
	if h := &e.hier; h.on {
		r.KVOffloads = h.offloads
		r.KVReloads = h.reloads
		r.TierDemotions = h.demotions
		r.TierDrops = h.drops
		r.ReloadStall = h.reloadStall
		r.PrefixHits = h.hits
		r.PrefixMisses = h.misses
		r.PrefixHitTokens = h.hitTokens
		r.KVTierMoves = make([]TierStat, len(h.bytesIn))
		r.KVTierMoves[0] = TierStat{Tier: "hbm", BytesIn: h.bytesIn[0], BytesOut: h.bytesOut[0]}
		for i := range e.cfg.KV.Tiers {
			r.KVTierMoves[i+1] = TierStat{
				Tier:     e.cfg.KV.Tiers[i].label(i),
				BytesIn:  h.bytesIn[i+1],
				BytesOut: h.bytesOut[i+1],
			}
		}
	}
	if len(e.samples) > 0 {
		r.Timeline = append([]TimelinePoint(nil), e.samples...)
	}
	goodDone := e.goodDone[:0]
	var lastArrival, lastDone units.Seconds
	meetsSLO, nonFinite := 0, 0
	healthyGood, healthyTot, faultedGood, faultedTot := 0, 0, 0, 0
	for i := range e.arena {
		req := e.completion(i)
		if req == nil {
			continue
		}
		t, _ := ttftOf(req)
		if !units.Finite(t) {
			nonFinite++
		}
		if e2e, _ := e2eOf(req); !units.Finite(e2e) {
			nonFinite++
		}
		perTok, hasTPOT := tpotOf(req)
		if hasTPOT && !units.Finite(perTok) {
			nonFinite++
		}
		good := t <= e.cfg.SLO.TTFT && (!hasTPOT || perTok <= e.cfg.SLO.TPOT) && !req.corrupt
		if good {
			meetsSLO++
			if len(e.incidents) > 0 {
				goodDone = append(goodDone, req.done)
			}
		}
		if e.inDegraded(req.Arrival) {
			faultedTot++
			if good {
				faultedGood++
			}
		} else {
			healthyTot++
			if good {
				healthyGood++
			}
		}
		if req.Arrival > lastArrival {
			lastArrival = req.Arrival
		}
		if req.done > lastDone {
			lastDone = req.done
		}
	}
	// Failed requests count against their arrival epoch's attainment.
	for _, req := range e.failed {
		if req.Arrival > lastArrival {
			lastArrival = req.Arrival
		}
		if e.inDegraded(req.Arrival) {
			faultedTot++
		} else {
			healthyTot++
		}
	}
	if healthyTot > 0 {
		r.SLOHealthy = float64(healthyGood) / float64(healthyTot)
	}
	if faultedTot > 0 {
		r.SLOFaulted = float64(faultedGood) / float64(faultedTot)
	}
	r.Makespan = lastDone
	if lastArrival > 0 {
		r.OfferedRate = float64(r.Requests) / lastArrival
	}
	if r.Makespan > 0 {
		r.CompletedRate = float64(r.Completed) / r.Makespan
		r.GoodputRPS = float64(meetsSLO) / r.Makespan
	}
	if r.Completed > 0 {
		r.SLOAttainment = float64(meetsSLO) / float64(r.Completed)
	}
	if len(e.incidents) > 0 {
		// goodDone was filled in ID order; the recovery scan needs it in
		// time order.
		sort.Float64s(goodDone)
		r.Incidents = append([]Incident(nil), e.incidents...)
		e.resolveRecovery(r.Incidents, goodDone, lastDone)
	}
	e.goodDone = goodDone[:0]
	r.DroppedSamples = nonFinite
	// One sample per completion at most: size the scratch once, since
	// growing it by append on a fresh engine allocates several times its
	// final size.
	lat := slices.Grow(e.lat[:0], e.completed)
	for _, m := range [...]struct {
		sum    *stats.Summary
		sample func(*reqState) (float64, bool)
	}{{&r.TTFT, ttftOf}, {&r.TPOT, tpotOf}, {&r.E2E, e2eOf}} {
		lat = lat[:0]
		for i := range e.arena {
			if req := e.completion(i); req != nil {
				if v, ok := m.sample(req); ok {
					lat = append(lat, v)
				}
			}
		}
		*m.sum = stats.SummarizeInPlace(lat)
	}
	e.lat = lat[:0]
	if e.steps > 0 {
		r.MeanBatch = float64(e.stepBatch) / float64(e.steps)
	}
	if e.stepBatch > 0 {
		r.TokensPerStep = float64(e.stepTokens) / float64(e.stepBatch)
	}
	if len(e.samples) > 0 {
		var sum float64
		for _, p := range e.samples {
			sum += p.KVOccupancy
		}
		r.MeanKVOccupancy = sum / float64(len(e.samples))
	}
	return r
}

// completion returns the copy that completed request i, or nil when the
// request did not complete. Completion order depends on scheduling;
// metrics are over the request population, so the report walks it in
// ID order for a canonical view: the arena index is the request ID. A
// request is completed by its arena entry or by a winning hedge clone,
// which lives outside the arena, carries the same ID and is the entry's
// twin; only one of the two copies ever completes.
func (e *Engine) completion(i int) *reqState {
	req := &e.arena[i]
	if req.completed {
		return req
	}
	if req.twin != nil && req.twin.completed {
		return req.twin
	}
	return nil
}

// ttftOf, tpotOf and e2eOf are a completed request's latency samples;
// TPOT is defined for requests with at least two output tokens.
func ttftOf(req *reqState) (float64, bool) { return req.firstToken - req.Arrival, true }

func e2eOf(req *reqState) (float64, bool) { return req.done - req.Arrival, true }

func tpotOf(req *reqState) (float64, bool) {
	if req.OutputTokens <= 1 {
		return 0, false
	}
	return (req.done - req.firstToken) / float64(req.OutputTokens-1), true
}

// inDegraded reports whether any instance was down or draining at t.
// Spans are appended in open order and never overlap (a span closes
// before the next opens), so they are sorted by start.
func (e *Engine) inDegraded(t units.Seconds) bool {
	if len(e.spans) == 0 {
		return false
	}
	// First span starting after t; the candidate is the one before it.
	i := sort.Search(len(e.spans), func(i int) bool { return e.spans[i].start > t })
	return i > 0 && t < e.spans[i-1].end
}

// resolveRecovery fills each incident's Recovery time: the delay until
// the within-SLO completion rate, averaged over the trailing recovery
// window (clipped at the crash instant), regains recoveryBand of
// its pre-crash level. goodDone must be sorted; incidents with no
// pre-crash goodput recover instantly, and an incident whose goodput
// never returns is censored at the makespan.
func (e *Engine) resolveRecovery(incidents []Incident, goodDone []float64, makespan units.Seconds) {
	const w, band = recoveryWindow, recoveryBand
	countIn := func(lo, hi float64) int {
		return sort.SearchFloat64s(goodDone, hi) - sort.SearchFloat64s(goodDone, lo)
	}
	for i := range incidents {
		at := incidents[i].At
		pre := float64(countIn(at-w, at)) / w
		if pre == 0 {
			incidents[i].Recovery = 0
			continue
		}
		step := w / 8
		rec := makespan - at // censored unless the scan finds recovery
		for t := at + step; t <= makespan; t += step {
			lo := t - w
			if lo < at {
				lo = at
			}
			if float64(countIn(lo, t))/(t-lo) >= band*pre {
				rec = t - at
				break
			}
		}
		incidents[i].Recovery = rec
	}
}
