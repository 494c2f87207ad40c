package servesim

import (
	"fmt"
)

// CapacityPlanner searches for the maximum sustainable arrival rate of
// a (Config, Workload) pair: the highest Poisson (or bursty/diurnal)
// rate whose SLO attainment still meets Target — the "goodput knee"
// that answers how much traffic a given fleet shape can serve within
// SLO. The search probes capacityLoRate, doubles from capacityHiRate
// until attainment drops below Target (or capacityMaxRate is reached),
// then bisects the bracket for at most capacityMaxIters steps.
//
// Every probe runs the workload at a candidate rate with the
// configuration's own seed, so the search is a pure function of
// (Config, Workload): probes at the same rate see identical traffic,
// attainment is (near-)monotone in rate, and the result is
// byte-identical on every run and for any worker count when fanned out
// by an experiment sweep.
type CapacityPlanner struct {
	// Target is the required SLO attainment in (0, 1].
	Target float64
	// Tolerance is the relative bracket width (hi-lo)/hi at which
	// bisection stops.
	Tolerance float64
}

// The capacity search bracket, in req/s: capacityLoRate is assumed
// (and verified) sustainable — if it is not, the planner reports
// MaxRate 0; capacityHiRate is the first overload probe, doubled until
// unsustainable and capped at capacityMaxRate. capacityMaxIters caps
// the bisection steps.
const (
	capacityLoRate   = 1.0
	capacityHiRate   = 4.0
	capacityMaxRate  = 4096.0
	capacityMaxIters = 32
)

// DefaultCapacityPlanner returns the reference search: 90% attainment
// at 4% resolution.
func DefaultCapacityPlanner() CapacityPlanner {
	return CapacityPlanner{Target: 0.9, Tolerance: 0.04}
}

// CapacityProbe is one evaluated rate of a capacity search.
type CapacityProbe struct {
	RatePerSec  float64
	Attainment  float64
	Sustainable bool
}

// CapacityResult is the outcome of a capacity search.
type CapacityResult struct {
	// MaxRate is the highest rate verified to meet Target (the knee);
	// 0 when even capacityLoRate misses it.
	MaxRate float64
	// Attainment is the SLO attainment measured at MaxRate.
	Attainment float64
	// Saturated marks a search that hit capacityMaxRate while still
	// meeting Target — the true knee lies above the search ceiling.
	Saturated bool
	// Report is the full simulation report at MaxRate (at
	// capacityLoRate when MaxRate is 0, so the caller can inspect why
	// admission failed).
	Report *Report
	// Probes lists every evaluated rate in evaluation order.
	Probes []CapacityProbe
	// Iterations counts the simulation runs the search spent.
	Iterations int
}

// Validate checks the planner parameters.
func (p CapacityPlanner) Validate() error {
	if !(p.Target > 0 && p.Target <= 1) {
		return fmt.Errorf("servesim: capacity target must be in (0,1], got %v", p.Target)
	}
	if !(p.Tolerance > 0 && p.Tolerance < 1) {
		return fmt.Errorf("servesim: capacity tolerance must be in (0,1), got %v", p.Tolerance)
	}
	return nil
}

// Find runs the capacity search on the cluster and workload. The
// workload's RatePerSec is overridden by each probe; trace workloads
// have no rate to search over and are rejected.
func (p CapacityPlanner) Find(cfg Config, w Workload) (*CapacityResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if w.Arrival == ArrivalTrace {
		return nil, fmt.Errorf("servesim: capacity search needs a rate-parameterized workload, not a trace")
	}

	res := &CapacityResult{}
	// One engine serves every probe of the search: the doubling and
	// bisection trail reuses the event heap, request arena and metric
	// buffers run after run, so a probe allocates only its Report.
	eng := NewEngine()
	probe := func(rate float64) (*Report, bool, error) {
		pw := w
		pw.RatePerSec = rate
		rep, err := eng.Run(cfg, pw)
		if err != nil {
			return nil, false, err
		}
		ok := rep.SLOAttainment >= p.Target
		res.Probes = append(res.Probes, CapacityProbe{RatePerSec: rate, Attainment: rep.SLOAttainment, Sustainable: ok})
		res.Iterations++
		return rep, ok, nil
	}

	lo := capacityLoRate
	loRep, ok, err := probe(lo)
	if err != nil {
		return nil, err
	}
	if !ok {
		// Even the bracket floor misses the target: report MaxRate 0
		// with the floor's report attached for diagnosis.
		res.Attainment = loRep.SLOAttainment
		res.Report = loRep
		return res, nil
	}
	best, bestRep := lo, loRep

	// Doubling phase: push hi until the SLO breaks or the ceiling hits.
	hi := capacityHiRate
	for {
		rep, ok, err := probe(hi)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		best, bestRep = hi, rep
		lo = hi
		if hi >= capacityMaxRate {
			res.Saturated = true
			res.MaxRate = best
			res.Attainment = bestRep.SLOAttainment
			res.Report = bestRep
			return res, nil
		}
		hi = min(2*hi, capacityMaxRate)
	}

	// Bisection phase: [lo sustainable, hi unsustainable].
	for i := 0; i < capacityMaxIters && (hi-lo) > p.Tolerance*hi; i++ {
		mid := (lo + hi) / 2
		rep, ok, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			best, bestRep = mid, rep
			lo = mid
		} else {
			hi = mid
		}
	}
	res.MaxRate = best
	res.Attainment = bestRep.SLOAttainment
	res.Report = bestRep
	return res, nil
}
