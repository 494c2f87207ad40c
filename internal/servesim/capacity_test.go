package servesim

import (
	"math"
	"reflect"
	"testing"
)

// quickPlanner is a coarse, fast search for tests.
func quickPlanner() CapacityPlanner {
	p := DefaultCapacityPlanner()
	p.Tolerance = 0.1
	return p
}

func TestCapacityPlannerValidate(t *testing.T) {
	nan := math.NaN()
	bad := []CapacityPlanner{
		{Target: 0, Tolerance: 0.1},
		{Target: 0.9, Tolerance: 0},
		{Target: nan, Tolerance: 0.1},
		{Target: 0.9, Tolerance: nan},
	}
	for i, p := range bad {
		if _, err := p.Find(V3ServeConfig(), testWorkload(1, 10)); err == nil {
			t.Errorf("case %d: invalid planner %+v accepted", i, p)
		}
	}
	if _, err := quickPlanner().Find(V3ServeConfig(), Workload{Arrival: ArrivalTrace,
		Trace: []Request{{PromptTokens: 1, OutputTokens: 1}}}); err == nil {
		t.Error("trace workload accepted by capacity search")
	}
}

// The search must converge: a sustainable knee bracketed from above by
// an unsustainable probe within the configured tolerance.
func TestCapacityPlannerConvergence(t *testing.T) {
	p := quickPlanner()
	res, err := p.Find(V3ServeConfig(), testWorkload(0, 120))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRate <= 0 {
		t.Fatalf("no sustainable rate found: %+v", res)
	}
	if res.Attainment < p.Target {
		t.Errorf("knee attainment %.3f below target %.2f", res.Attainment, p.Target)
	}
	if res.Report == nil || res.Report.SLOAttainment != res.Attainment {
		t.Error("knee report missing or inconsistent with attainment")
	}
	// The final bracket is [MaxRate, smallest unsustainable probe].
	hi := 0.0
	for _, pr := range res.Probes {
		if !pr.Sustainable && (hi == 0 || pr.RatePerSec < hi) {
			hi = pr.RatePerSec
		}
	}
	if hi == 0 {
		t.Fatal("search never probed an unsustainable rate (knee unbounded?)")
	}
	if res.MaxRate >= hi {
		t.Fatalf("knee %.3f not below the unsustainable bracket %.3f", res.MaxRate, hi)
	}
	if (hi-res.MaxRate)/hi > p.Tolerance+1e-9 {
		t.Errorf("bracket [%.3f, %.3f] wider than tolerance %.2f", res.MaxRate, hi, p.Tolerance)
	}
	if res.Iterations != len(res.Probes) {
		t.Errorf("iterations %d != probes %d", res.Iterations, len(res.Probes))
	}
}

// The same search on the same inputs must reproduce every probe — the
// planner inherits the simulator's determinism contract.
func TestCapacityPlannerDeterministic(t *testing.T) {
	p := quickPlanner()
	w := testWorkload(0, 120)
	a, err := p.Find(V3ServeConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Find(V3ServeConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxRate != b.MaxRate || !reflect.DeepEqual(a.Probes, b.Probes) {
		t.Errorf("capacity search not deterministic:\n%+v\n%+v", a.Probes, b.Probes)
	}
}

// More hardware sustains more traffic: doubling the fleet must not
// shrink the knee.
func TestCapacityPlannerMonotoneInFleet(t *testing.T) {
	p := quickPlanner()
	w := testWorkload(0, 120)
	small := V3ServeConfig()
	big := V3ServeConfig()
	big.Fleet.PrefillInstances *= 2
	big.Fleet.DecodeInstances *= 2
	rs, err := p.Find(small, w)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := p.Find(big, w)
	if err != nil {
		t.Fatal(err)
	}
	if rb.MaxRate < rs.MaxRate {
		t.Errorf("doubled fleet knee %.2f below base fleet knee %.2f", rb.MaxRate, rs.MaxRate)
	}
}

// An unreachable target reports MaxRate 0 with the floor probe's
// report attached for diagnosis.
func TestCapacityPlannerUnsustainableFloor(t *testing.T) {
	p := quickPlanner()
	cfg := V3ServeConfig()
	cfg.Fleet.PrefillInstances, cfg.Fleet.DecodeInstances = 1, 1
	cfg.SLO.TTFT = 1e-6 // no prefill finishes this fast
	res, err := p.Find(cfg, testWorkload(0, 80))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRate != 0 {
		t.Errorf("a 1 us TTFT on a 1P+1D fleet reported sustainable: %+v", res)
	}
	if res.Report == nil || len(res.Probes) != 1 || res.Probes[0].Sustainable {
		t.Errorf("floor-failure result malformed: %+v", res)
	}
}

// A workload every rate sustains runs the doubling phase into the
// search ceiling: the knee is reported as a lower bound (Saturated) at
// capacityMaxRate after the floor probe and 11 doublings from 4 req/s.
func TestCapacityPlannerSaturates(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.SLO = SLO{TTFT: 1e9, TPOT: 1e9}
	res, err := quickPlanner().Find(cfg, testWorkload(0, 40))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || res.MaxRate != 4096 || len(res.Probes) != 12 {
		t.Errorf("saturated search = {Saturated %v, MaxRate %v, probes %d}, want {true, 4096, 12}",
			res.Saturated, res.MaxRate, len(res.Probes))
	}
}
