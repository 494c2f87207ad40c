package servesim

import (
	"encoding/json"
	"reflect"
	"testing"
)

// poolWorkload is a small but non-trivial workload: heavy-tailed
// lengths and enough pressure that batching, routing and (at high
// rates) preemption all engage.
func poolWorkload(rate float64, n int) Workload {
	return Workload{
		Arrival:    ArrivalPoisson,
		RatePerSec: rate,
		Requests:   n,
		Prompt:     LogNormal(1024, 0.5),
		Output:     LogNormal(512, 0.5),
	}
}

func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEngineReuseMatchesFresh pins the pooling contract: a Report from
// a reused engine must be byte-identical (JSON encoding included) to
// one from a fresh engine, across heterogeneous configurations run
// back to back on the same pools.
func TestEngineReuseMatchesFresh(t *testing.T) {
	cfgA := V3ServeConfig()
	cfgB := V3ServeConfig()
	cfgB.Fleet.Colocated = true
	cfgB.Seed = 9
	cfgC := V3ServeConfig()
	cfgC.Fleet.Router = RoutePowerOfTwo
	cfgC.Fleet.PrefillInstances = 3
	cfgC.Fleet.DecodeInstances = 2
	runs := []struct {
		cfg Config
		w   Workload
	}{
		{cfgA, poolWorkload(6, 120)},
		{cfgB, poolWorkload(9, 80)},
		{cfgC, poolWorkload(4, 60)},
		{cfgA, poolWorkload(6, 120)}, // shrink back after the bigger runs
	}
	eng := NewEngine()
	for i, run := range runs {
		pooled, err := eng.Run(run.cfg, run.w)
		if err != nil {
			t.Fatalf("run %d (pooled): %v", i, err)
		}
		fresh, err := Run(run.cfg, run.w)
		if err != nil {
			t.Fatalf("run %d (fresh): %v", i, err)
		}
		if !reflect.DeepEqual(pooled, fresh) {
			t.Fatalf("run %d: pooled report differs from fresh engine", i)
		}
		if pj, fj := reportJSON(t, pooled), reportJSON(t, fresh); string(pj) != string(fj) {
			t.Fatalf("run %d: pooled JSON differs from fresh:\n%s\n%s", i, pj, fj)
		}
	}
}

// TestEngineReuseNoBleed runs the same simulation twice in a row on one
// engine: if any pooled state (arena marks, queues, KV accounting,
// metric buffers) leaked across runs, the second report would drift.
func TestEngineReuseNoBleed(t *testing.T) {
	cfg := V3ServeConfig()
	// Crank the rate so preemption marks and long queues populate the
	// pools on the first run.
	w := poolWorkload(20, 150)
	eng := NewEngine()
	first, err := eng.Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := reportJSON(t, first), reportJSON(t, second); string(a) != string(b) {
		t.Fatalf("consecutive runs on one engine diverged:\n%s\n%s", a, b)
	}
}

// TestCapacityPlannerPooledDeterminism: the planner's pooled engine
// must make Find a pure function — identical trails on every call.
func TestCapacityPlannerPooledDeterminism(t *testing.T) {
	cfg := V3ServeConfig()
	w := poolWorkload(1, 60)
	p := DefaultCapacityPlanner()
	a, err := p.Find(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Find(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("capacity search not deterministic across pooled runs: %+v vs %+v", a, b)
	}
	if a.MaxRate <= 0 {
		t.Fatalf("expected a positive capacity knee, got %+v", a)
	}
}
