package servesim_test

import (
	"testing"

	"dsv3/internal/experiments"
	"dsv3/internal/servesim"
)

// Fleet bookkeeping must scale with the work done, not with the fleet:
// the reference 1000-instance deployment (the BenchmarkServeFleet run)
// and a 4x fleet at 4x the rate, where each instance sees the same
// traffic, must read at most two candidate loads per power-of-two pick
// and make no more per-unit scan iterations or KV page operations per
// request at 4x than at 1x.
func TestFleetWorkScalesWithTraffic(t *testing.T) {
	type work struct{ events, picks, loads, scans, kvOps, requests int }
	run := func(scale int) work {
		cfg := experiments.FleetConfig(79)
		cfg.Fleet.PrefillInstances *= scale
		cfg.Fleet.DecodeInstances *= scale
		w := experiments.FleetWorkload(11000 * float64(scale))
		w.Requests = 50_000
		e := servesim.NewEngine()
		rep, err := e.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != w.Requests {
			t.Fatalf("%dx fleet completed %d of %d requests", scale, rep.Completed, w.Requests)
		}
		var c work
		c.events, c.picks, c.loads, c.scans, c.kvOps = e.WorkCounts()
		c.requests = w.Requests
		return c
	}
	base, wide := run(1), run(4)
	for _, c := range []work{base, wide} {
		t.Logf("%+v: %.2f events, %.2f picks, %.3f scans, %.2f KV ops per request", c,
			float64(c.events)/float64(c.requests), float64(c.picks)/float64(c.requests), float64(c.scans)/float64(c.requests),
			float64(c.kvOps)/float64(c.requests))
		// Every request is picked at least twice: prefill dispatch, then
		// the decode hand-off.
		if c.picks < 2*c.requests {
			t.Errorf("%d picks for %d requests", c.picks, c.requests)
		}
		if c.loads > 2*c.picks {
			t.Errorf("p2c read %d candidate loads in %d picks, want <= 2 per pick", c.loads, c.picks)
		}
	}
	if wide.scans*base.requests > base.scans*wide.requests {
		t.Errorf("scan iterations per request grow with the fleet: %d/%d at 1x, %d/%d at 4x",
			base.scans, base.requests, wide.scans, wide.requests)
	}
	if wide.kvOps*base.requests > base.kvOps*wide.requests {
		t.Errorf("KV page operations per request grow with the fleet: %d/%d at 1x, %d/%d at 4x",
			base.kvOps, base.requests, wide.kvOps, wide.requests)
	}
}
