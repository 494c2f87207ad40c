package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"dsv3/internal/obs"
	"dsv3/internal/servesim"
)

// BENCHMARK.json must name exactly the workloads and metrics the
// binary reports, with the same units.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the binary has %d", names, len(workloads))
	}
	for _, c := range []struct {
		what   string
		listed []named
		want   map[string]string
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer()}} {
		got := map[string]string{}
		for _, m := range c.listed {
			got[m.Name] = m.Unit
		}
		for name, unit := range c.want {
			if got[name] != unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the binary", c.what, name, got[name], unit)
			}
		}
		if len(got) != len(c.want) || len(c.listed) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary reports %d", c.what, len(c.listed), len(c.want))
		}
	}
}

// deterministic keeps the metrics that must repeat exactly: everything
// but host times and their ratios.
func deterministic(m map[string]metric) map[string]float64 {
	out := map[string]float64{}
	for name, v := range m {
		if v.Unit == "s" || v.Unit == "ns" || name == "obs.trace_overhead" || name == "obs.recorder_overhead" {
			continue
		}
		out[name] = v.Value
	}
	return out
}

// The traced run's counts and modelled outputs repeat exactly across
// two runs of the same seed.
func TestTracedCountsRepeat(t *testing.T) {
	for _, name := range []string{"sessions", "fleet"} {
		if name == "fleet" && testing.Short() {
			continue
		}
		var runs [2]map[string]float64
		for i := range runs {
			var tl tally
			m := zeroLayerMetrics()
			workloads[name].traced(options{workload: name, seed: 5, seconds: 1e-3}, &tl, newSpanRecorder(), m)
			if tl.failed != 0 {
				t.Fatalf("%s: %d of %d operations failed", name, tl.failed, tl.attempted)
			}
			runs[i] = deterministic(m)
		}
		if runs[0]["obs.mark.complete"] == 0 || runs[0]["servesim.decode_steps"] == 0 {
			t.Fatalf("%s: traced run saw no work: %v", name, runs[0])
		}
		keys := make([]string, 0, len(runs[0]))
		for k := range runs[0] {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			if runs[0][k] != runs[1][k] {
				t.Errorf("%s: %s = %v, then %v", name, k, runs[0][k], runs[1][k])
			}
		}
	}
}

// Each completed request's traced phases tile its simulated E2E, on the
// sharded fleet path and on both KV arms, and the per-phase totals sum
// to the report's total E2E.
func TestPhasesTileE2E(t *testing.T) {
	fleetCfg, fleetW := fleetInputs(3)
	fleetW.Requests = 20_000
	arms := sessionArms(3)
	sw := sessionWorkload()
	sw.RatePerSec = 2
	for _, c := range []struct {
		name   string
		cfg    servesim.Config
		w      servesim.Workload
		reload bool
	}{
		{"fleet", fleetCfg, fleetW, false},
		{"sessions " + arms[0].name, arms[0].cfg, sw, false},
		{"sessions " + arms[1].name, arms[1].cfg, sw, true},
	} {
		ct := &countingTracer{}
		eng := servesim.NewEngine()
		eng.AttachTracer(ct)
		rep, err := eng.Run(c.cfg, c.w)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := ct.checkTiling(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if got := ct.marks[obs.MarkComplete]; got != rep.Completed || got != rep.E2E.N {
			t.Errorf("%s: tracer saw %d completions, report %d (E2E over %d)", c.name, got, rep.Completed, rep.E2E.N)
		}
		var phases float64
		for _, s := range ct.phaseS {
			phases += s
		}
		if e2e := rep.E2E.Mean * float64(rep.E2E.N); math.Abs(phases-e2e) > 1e-9*e2e {
			t.Errorf("%s: phases sum to %v sim s, E2E to %v", c.name, phases, e2e)
		}
		if c.reload && ct.phaseS[obs.PhaseReload] == 0 {
			t.Errorf("%s: no reload phase traced; the case no longer covers the KV tiers", c.name)
		}
	}
}
