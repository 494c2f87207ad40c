package servesim

import (
	"math/rand"
	"reflect"
	"testing"
)

// idSet against a plain membership slice: size, membership, rank and
// select (ascending scans and random access, which move the cursor both
// ways) after every batch of random puts.
func TestIDSetMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1, 63, 64, 65, 200, 600} {
		var s idSet
		s.reset(size)
		in := make([]bool, size)
		for round := 0; round < 200; round++ {
			for i := rng.Intn(8); i >= 0; i-- {
				id, v := rng.Intn(size), rng.Intn(3) != 0
				s.put(id, v)
				in[id] = v
			}
			var members []int
			for id, v := range in {
				if s.has(id) != v {
					t.Fatalf("size %d: has(%d) = %v, want %v", size, id, !v, v)
				}
				if got := s.rank(id); got != len(members) {
					t.Fatalf("size %d: rank(%d) = %d, want %d", size, id, got, len(members))
				}
				if v {
					members = append(members, id)
				}
			}
			if s.n != len(members) {
				t.Fatalf("size %d: n = %d, want %d", size, s.n, len(members))
			}
			for k, id := range members {
				if got := s.nth(k); got != id {
					t.Fatalf("size %d: ascending nth(%d) = %d, want %d", size, k, got, id)
				}
			}
			for i := 0; i < 4 && len(members) > 0; i++ {
				k := rng.Intn(len(members))
				if got := s.nth(k); got != members[k] {
					t.Fatalf("size %d: nth(%d) = %d, want %d", size, k, got, members[k])
				}
			}
			if err := s.check(); err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
		}
		// The full set answers nth without its cursor: fill it, drop one
		// member and re-add it, checking every rank at each stage (the
		// descending pass sends the cursor back each time).
		for id := 0; id < size; id++ {
			s.put(id, true)
			in[id] = true
		}
		gone := rng.Intn(size)
		for stage := 0; stage < 3; stage++ {
			if stage == 1 {
				s.put(gone, false)
				in[gone] = false
			} else if stage == 2 {
				s.put(gone, true)
				in[gone] = true
			}
			var members []int
			for id, v := range in {
				if v {
					members = append(members, id)
				}
			}
			if s.n != len(members) {
				t.Fatalf("size %d stage %d: n = %d, want %d", size, stage, s.n, len(members))
			}
			for k := len(members) - 1; k >= 0; k-- {
				if got := s.nth(k); got != members[k] {
					t.Fatalf("size %d stage %d: nth(%d) = %d, want %d", size, stage, k, got, members[k])
				}
			}
			for k, id := range members {
				if got := s.nth(k); got != id {
					t.Fatalf("size %d stage %d: ascending nth(%d) = %d, want %d", size, stage, k, got, id)
				}
			}
			if err := s.check(); err != nil {
				t.Fatalf("size %d stage %d: %v", size, stage, err)
			}
		}
	}
}

// The engine's index-backed candidate views must make every policy pick
// what Pick picks over the candidate slice the engine used to build —
// every unit filtered by health (and idleness), the hedge twin's
// instance removed — and consume the same RNG draws. The fleet state
// changes a little between picks, so the sets' cursors carry over, and
// small load ranges force the tie-breaks.
func TestIndexViewsMatchPickOverSlice(t *testing.T) {
	healths := []healthState{healthUp, healthDegraded, healthDraining, healthDown, healthQuarantined}
	for _, pol := range RouterPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(pol) + 1))
			e := NewEngine()
			const nPrefill, nDecode = 150, 100
			e.prefills = make([]unitState, nPrefill)
			e.decodes = make([]decodeUnit, nDecode)
			e.idle.reset(nPrefill)
			for i := range e.prefills {
				e.idle.put(i, true)
			}
			e.servable.reset(nDecode)
			for i := range e.decodes {
				e.servable.put(i, true)
			}
			busy := &reqState{}
			var fleetUsed int
			perturb := func(n int) {
				for ; n > 0; n-- {
					i := rng.Intn(nPrefill)
					p := &e.prefills[i]
					p.health = healths[rng.Intn(len(healths))]
					p.prefill = nil
					if rng.Intn(2) == 0 {
						p.prefill = busy
					}
					e.idle.put(i, p.prefill == nil && p.health.servable())

					j := rng.Intn(nDecode)
					d := &e.decodes[j]
					d.health = healths[rng.Intn(len(healths))]
					d.active = make([]*reqState, rng.Intn(3))
					d.kv = kvPool{total: 4, used: rng.Intn(5), fleet: &fleetUsed}
					e.servable.put(j, d.health.servable())
				}
			}
			perturb(4 * nDecode)

			ref, got := NewRouter(pol, 7), newPicker(pol, 7)
			for trial := 0; trial < 3000; trial++ {
				perturb(1 + rng.Intn(3))
				if trial%2 == 0 {
					// Prefill dispatch: the idle, servable prefill units.
					var loads []InstanceLoad
					for i := range e.prefills {
						if p := &e.prefills[i]; p.prefill == nil && p.health.servable() {
							loads = append(loads, InstanceLoad{Instance: i})
						}
					}
					if len(loads) == 0 {
						continue
					}
					want := loads[ref.Pick(loads)].Instance
					if inst := e.route(got, &e.idle, nil, -1); inst != want {
						t.Fatalf("trial %d: prefill view picked %d, Pick over slice %d", trial, inst, want)
					}
				} else {
					// Decode hand-off: the servable decode units, less a
					// racing hedge copy's twin instance.
					req := &reqState{}
					if rng.Intn(2) == 0 {
						req.hstate = hzRacing
						req.twin = &reqState{inst: rng.Intn(nDecode+1) - 1}
					}
					var loads []InstanceLoad
					for i := range e.decodes {
						if d := &e.decodes[i]; d.health.servable() {
							loads = append(loads, InstanceLoad{Instance: i, Queue: len(d.active), FreeKV: d.kv.free()})
						}
					}
					if len(loads) == 0 {
						continue
					}
					if req.twin != nil && len(loads) > 1 {
						for k := range loads {
							if loads[k].Instance == req.twin.inst {
								loads = append(loads[:k], loads[k+1:]...)
								break
							}
						}
					}
					want := loads[ref.Pick(loads)].Instance
					if inst := e.route(got, &e.servable, e.decodes, e.twinSkip(req)); inst != want {
						t.Fatalf("trial %d: decode view picked %d, Pick over slice %d", trial, inst, want)
					}
				}
				if !reflect.DeepEqual(ref, Router(got)) {
					t.Fatalf("trial %d: router state diverged (RNG draws or cursor)", trial)
				}
			}
			if e.work.picks == 0 {
				t.Fatal("no pick was made")
			}
		})
	}
}

// After every event of configs that exercise each index transition —
// crashes, drains and MTBF faults on both pools, KV tiers, colocation,
// hedging under detected SDC, and KV-occupancy admission — the fleet
// KV counters and both candidate indexes must equal a fresh per-unit
// recount, under every router policy.
func TestIndexesMatchRecountEveryEvent(t *testing.T) {
	faulted := V3ServeConfig()
	faulted.Fleet.PrefillInstances = 3
	faulted.KV.HBM.CapacityBytes = 0.4e9
	faulted.Resilience.MaxRetries = 3
	faulted.Resilience.Faults = &FaultPlan{
		Events: []FaultEvent{
			{At: 2, Kind: FaultCrash, Instance: 1},
			{At: 3, Kind: FaultDrain, Prefill: true, Instance: 0},
			{At: 4, Kind: FaultCrash, Prefill: true, Instance: 2},
			{At: 5, Kind: FaultDegrade, Instance: 2, FailedPlanes: 4},
			{At: 7, Kind: FaultRecover, Instance: 1},
			{At: 8, Kind: FaultRecover, Prefill: true, Instance: 0},
			{At: 9, Kind: FaultDrain, Instance: 3},
			{At: 10, Kind: FaultHeal, Instance: 2},
			{At: 12, Kind: FaultRecover, Prefill: true, Instance: 2},
		},
		MTBF: 3,
		MTTR: 2,
	}

	tiered := tieredConfig()

	colocated := V3ServeConfig()
	colocated.Fleet.Colocated = true
	colocated.KV.HBM.CapacityBytes = 0.4e9
	colocated.Resilience.MaxRetries = 2
	colocated.Resilience.Faults = crashPlan(1, 4, 9)

	hedged := hazardTestConfig(true)
	hedged.Resilience.Hedge = HedgePolicy{Delay: 4}

	shed := V3ServeConfig()
	shed.KV.HBM.CapacityBytes = 0.4e9
	shed.Resilience.Admission = AdmissionPolicy{MaxKVOccupancy: 0.5}
	shed.Resilience.Faults = crashPlan(0, 3, 8)

	cases := []struct {
		name string
		cfg  Config
		w    Workload
	}{
		{"faulted", faulted, testWorkload(10, 150)},
		{"tiered", tiered, sessionWorkload(6, 120)},
		{"colocated", colocated, testWorkload(6, 100)},
		{"hedged", hedged, testWorkload(8, 150)},
		{"kv-occupancy", shed, testWorkload(14, 150)},
	}
	for _, c := range cases {
		for _, pol := range RouterPolicies() {
			t.Run(c.name+"/"+pol.String(), func(t *testing.T) {
				cfg := c.cfg
				cfg.Fleet.Router = pol
				e := NewEngine()
				e.checkEveryEvent()
				rep, err := e.Run(cfg, c.w)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Completed == 0 {
					t.Fatal("no request completed")
				}
			})
		}
	}
}
