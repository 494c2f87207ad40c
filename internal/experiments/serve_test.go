package experiments

import (
	"strings"
	"testing"

	"dsv3/internal/results"
	"dsv3/internal/servesim"
)

// The goldens pin only quick mode, so a full-mode arm whose label is
// shorter than its label columns would panic only in a full run. Every
// study, the CLI's included, must be well formed in both modes and on
// a saturated capacity search; no simulation runs here.
func TestServeStudiesWellFormed(t *testing.T) {
	studies := map[string]func(quick bool) serveStudy{
		"serve":          serveLoadStudy,
		"serve-disagg":   disaggStudy,
		"serve-spec":     specStudy,
		"serve-router":   routerStudy,
		"serve-capacity": capacityStudy,
		"serve-failure":  failureStudy,
		"serve-shed":     shedStudy,
		"serve-kvtier":   kvTierStudy,
		"serve-fleet":    fleetStudy,
		"serve-hazard":   hazardStudy,
		"serve-hedge":    hedgeStudy,
	}
	for _, r := range Catalogue() {
		if strings.HasPrefix(r.Name, "serve") && r.Name != "serve-trace" && studies[r.Name] == nil {
			t.Errorf("serving study %q is not checked here", r.Name)
		}
	}

	// points gives every arm a report and knee with one record in each
	// list the detail tables walk.
	points := func(name string, s serveStudy, saturated bool) []servePoint {
		if len(s.arms) == 0 {
			t.Errorf("%s: no arms", name)
		}
		pts := make([]servePoint, len(s.arms))
		for i, a := range s.arms {
			if a.set == nil {
				t.Fatalf("%s: arm %d has no set", name, i)
			}
			pts[i] = servePoint{arm: a,
				rep: &servesim.Report{KVTierMoves: []servesim.TierStat{{}}, Incidents: []servesim.Incident{{}},
					Timeline: []servesim.TimelinePoint{{}}},
				knee: &servesim.CapacityResult{MaxRate: 4096, Saturated: saturated, Probes: []servesim.CapacityProbe{{}}}}
		}
		return pts
	}
	check := func(name string, saturated bool, tabulate func() []*results.Table) {
		var tabs []*results.Table
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: tabulating panics: %v", name, r)
				}
			}()
			tabs = tabulate()
		}()
		for _, tab := range tabs {
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("%s: %q row %d has %d cells for %d columns", name, tab.Title, i, len(row), len(tab.Columns))
				}
				for j, c := range tab.Columns {
					if c.Name == "Knee" && saturated != strings.HasSuffix(row[j].Text, "(search ceiling)") {
						t.Errorf("%s: %q row %d shows knee %q for saturated=%v", name, tab.Title, i, row[j].Text, saturated)
					}
				}
			}
		}
	}

	for name, study := range studies {
		for _, quick := range []bool{true, false} {
			for _, saturated := range []bool{false, true} {
				s := study(quick)
				pts := points(name, s, saturated)
				check(name, saturated, func() []*results.Table { return []*results.Table{tabulate(s.title, pts, s.cols, nil, nil)} })
			}
		}
	}

	// The CLI's variants: every optional table on, a trace replay, and a
	// capacity search.
	full := servesim.V3ServeConfig()
	full.KV.Tiers = []servesim.KVTierConfig{{Name: "dram"}}
	full.Resilience.Faults = &servesim.FaultPlan{Events: []servesim.FaultEvent{{Kind: servesim.FaultDegrade}}}
	planner := servesim.DefaultCapacityPlanner()
	for _, c := range []struct {
		name    string
		w       servesim.Workload
		rates   []float64
		planner *servesim.CapacityPlanner
	}{
		{"dsv3serve sweep", servesim.Workload{}, []float64{4, 8}, nil},
		{"dsv3serve trace", servesim.Workload{Arrival: servesim.ArrivalTrace}, nil, nil},
		{"dsv3serve capacity", servesim.Workload{}, nil, &planner},
	} {
		for _, saturated := range []bool{false, true} {
			s := cliStudy(full, c.w, c.rates, c.planner)
			pts := points(c.name, s, saturated)
			check(c.name, saturated, func() []*results.Table { return cliTables(full, s, true, pts) })
		}
	}
}

// An observed engine is not safe to share across the pool's workers,
// and a capacity search would bypass it, so ServeCLI runs it only on a
// single plain arm.
func TestServeCLIEngineRunsOneArm(t *testing.T) {
	cfg, eng := servesim.V3ServeConfig(), servesim.NewEngine()
	w := servesim.Workload{Arrival: servesim.ArrivalPoisson, Requests: 5,
		Prompt: servesim.LogNormal(64, 0.5), Output: servesim.LogNormal(16, 0.5)}
	planner := servesim.DefaultCapacityPlanner()
	planner.Tolerance = 0.5
	if _, err := ServeCLI(cfg, w, []float64{4, 8}, nil, false, eng); err == nil {
		t.Error("an engine with two rates must be rejected")
	}
	if _, err := ServeCLI(cfg, w, nil, &planner, false, eng); err == nil {
		t.Error("an engine with a capacity search must be rejected")
	}
}
