package servesim

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// hazardTestPlanes is the plane incident of the hazard tests: decode
// instance 1 loses 6 of 8 planes from t=4s to t=16s.
func hazardTestPlanes() *FaultPlan {
	return &FaultPlan{Events: []FaultEvent{
		{At: 4, Kind: FaultDegrade, Instance: 1, FailedPlanes: 6, TotalPlanes: 8},
		{At: 16, Kind: FaultHeal, Instance: 1},
	}}
}

// hazardTestPlan is the hazard half of the reference composed
// incident: a 0.1% per-step silent-corruption rate. With detect it
// adds the full detection stack (Freivalds verification, EWMA
// draining, quarantine repair).
func hazardTestPlan(detect bool) *HazardPlan {
	plan := &HazardPlan{SDCRate: 0.001}
	if detect {
		plan.VerifyTrials = 8
		plan.DetectThreshold = 1.25
		plan.QuarantineRepair = 4
	}
	return plan
}

func hazardTestConfig(detect bool) Config {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.4e9
	cfg.Resilience.MaxRetries = 3
	cfg.Resilience.Faults = hazardTestPlanes()
	cfg.Resilience.Hazards = hazardTestPlan(detect)
	return cfg
}

func mustJSON(t *testing.T, r *Report) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The determinism contract extends to hazardous runs: same seed,
// config and plan reproduce the report byte for byte, and a hazardous
// run must differ from the clean one.
func TestHazardDeterminism(t *testing.T) {
	cfg := hazardTestConfig(true)
	w := testWorkload(5, 150)
	a := mustJSON(t, mustRun(t, cfg, w))
	if b := mustJSON(t, mustRun(t, cfg, w)); a != b {
		t.Fatalf("hazardous runs diverged:\n%s\n%s", a, b)
	}
	clean := cfg
	clean.Resilience.Faults, clean.Resilience.Hazards = nil, nil
	if c := mustJSON(t, mustRun(t, clean, w)); a == c {
		t.Error("hazardous report identical to hazard-free report")
	}
}

// A pooled engine must behave exactly like a fresh one: a hazardous
// run must not leak state into a following clean run (the hazard
// counters are engine-owned and recycled), and re-running the
// hazardous config reproduces the first report.
func TestHazardPooledEngineReuse(t *testing.T) {
	hz := hazardTestConfig(true)
	hz.Resilience.Hedge = HedgePolicy{Delay: 4}
	clean := hz
	clean.Resilience.Faults, clean.Resilience.Hazards = nil, nil
	clean.Resilience.Hedge = HedgePolicy{}
	w := testWorkload(5, 150)

	e := NewEngine()
	first, err := e.Run(hz, w)
	if err != nil {
		t.Fatal(err)
	}
	hazJSON := mustJSON(t, first)
	cleanPooled, err := e.Run(clean, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, cleanPooled); got != mustJSON(t, mustRun(t, clean, w)) {
		t.Error("clean run on a pooled engine differs from a fresh engine after a hazardous run")
	}
	if cleanPooled.CorruptSteps != 0 || cleanPooled.CorruptResponses != 0 ||
		cleanPooled.GrayDrained != 0 || cleanPooled.Hedges != 0 || cleanPooled.HedgeWastedTokens != 0 {
		t.Errorf("hazard counters leaked into the clean run: %+v", cleanPooled)
	}
	again, err := e.Run(hz, w)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, again) != hazJSON {
		t.Error("pooled hazardous re-run differs from the first run")
	}
}

// The detection stack is the point of the subsystem: without it,
// undetected corruption taints completed responses; with it, Freivalds
// verification catches corrupt steps (quarantining instead of
// completing) and the EWMA tracker drains the plane-degraded
// straggler.
func TestHazardDetectionCatchesCorruption(t *testing.T) {
	w := testWorkload(5, 150)
	off := mustRun(t, hazardTestConfig(false), w)
	on := mustRun(t, hazardTestConfig(true), w)

	if off.CorruptSteps == 0 {
		t.Fatal("no corrupt steps injected with detection off")
	}
	if off.SDCDetected != 0 {
		t.Errorf("detection off caught %d steps", off.SDCDetected)
	}
	if off.CorruptResponses == 0 {
		t.Error("undetected corruption produced no corrupt responses")
	}
	if on.SDCDetected == 0 {
		t.Error("detection on caught nothing")
	}
	if on.CorruptResponses >= off.CorruptResponses {
		t.Errorf("detection did not reduce corrupt responses: on %d, off %d",
			on.CorruptResponses, off.CorruptResponses)
	}
	if on.GrayDrained == 0 {
		t.Error("EWMA detection never drained the degraded straggler")
	}
	var sdc, gray bool
	for _, inc := range on.Incidents {
		sdc = sdc || inc.Kind == "sdc"
		gray = gray || inc.Kind == "gray-drain"
	}
	if !sdc || !gray {
		t.Errorf("incident log missing hazard kinds (sdc=%v gray-drain=%v)", sdc, gray)
	}
	// Corrupt completions never count as SLO-good.
	if off.GoodputRPS >= on.GoodputRPS && off.CorruptResponses > off.Completed/2 {
		// Heavy corruption with detection off must gut goodput even
		// though raw completion latency looks healthy.
		t.Logf("off goodput %.2f vs on %.2f", off.GoodputRPS, on.GoodputRPS)
	}
}

// Hedged requests race a duplicate against a permanently degraded
// straggler: some duplicates must win, losers are cancelled and
// charged as wasted work, and every request still resolves exactly
// once.
func TestHedgeFirstWins(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.4e9
	cfg.Resilience.MaxRetries = 3
	cfg.Resilience.Faults = &FaultPlan{Events: []FaultEvent{
		{At: 2, Kind: FaultDegrade, Instance: 1, FailedPlanes: 7, TotalPlanes: 8},
	}}
	cfg.Resilience.Hedge = HedgePolicy{Delay: 4}
	w := testWorkload(4, 150)
	r := mustRun(t, cfg, w)

	if r.Hedges == 0 {
		t.Fatal("no hedges fired")
	}
	if r.HedgeWins == 0 {
		t.Error("no hedge ever won against the straggler")
	}
	if r.HedgeWins > r.Hedges {
		t.Errorf("more wins (%d) than hedges (%d)", r.HedgeWins, r.Hedges)
	}
	if r.HedgeWastedTokens == 0 {
		t.Error("hedging reported zero wasted tokens")
	}
	if r.Completed+r.Failed+r.Shed != r.Requests {
		t.Errorf("request accounting broken: %d completed + %d failed + %d shed != %d offered",
			r.Completed, r.Failed, r.Shed, r.Requests)
	}
	// The report reaches a winning clone through its arena twin: one
	// TTFT sample per completion, none missed and none twice.
	if r.TTFT.N != r.Completed {
		t.Errorf("report summarized %d completions, the engine counted %d", r.TTFT.N, r.Completed)
	}
}

// The p95-tracked trigger must stay at the floor until enough
// completions accumulate, then follow the observed tail — and stay
// deterministic.
func TestHedgeP95Determinism(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.4e9
	cfg.Resilience.Faults = &FaultPlan{Events: []FaultEvent{
		{At: 2, Kind: FaultDegrade, Instance: 1, FailedPlanes: 7, TotalPlanes: 8},
	}}
	cfg.Resilience.Hedge = HedgePolicy{Delay: 4, TrackP95: true}
	w := testWorkload(4, 150)
	a := mustJSON(t, mustRun(t, cfg, w))
	if b := mustJSON(t, mustRun(t, cfg, w)); a != b {
		t.Fatal("p95-hedged runs diverged")
	}
}

// Plane hazards alone (no SDC, no hedging) degrade and then restore
// service without dropping a single request.
func TestPlaneHazardDegradesWithoutDropping(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.4e9
	cfg.Resilience.Faults = hazardTestPlanes()
	w := testWorkload(5, 150)
	r := mustRun(t, cfg, w)
	if r.Failed != 0 || r.Shed != 0 {
		t.Errorf("pure plane degradation dropped work: %d failed, %d shed", r.Failed, r.Shed)
	}
	if r.Completed != r.Requests {
		t.Errorf("completed %d of %d", r.Completed, r.Requests)
	}
	clean := cfg
	clean.Resilience.Faults = nil
	if mustJSON(t, r) == mustJSON(t, mustRun(t, clean, w)) {
		t.Error("plane degradation left the report untouched")
	}
	// Plane events need no HazardPlan: an empty one (hazard machinery
	// on, nothing to inject or detect) must not change the run.
	empty := cfg
	empty.Resilience.Hazards = &HazardPlan{}
	if mustJSON(t, r) != mustJSON(t, mustRun(t, empty, w)) {
		t.Error("an empty hazard plan changed a plane-degraded run")
	}
	// The heal restores full bandwidth; the engine's comm scales end at 1.
	e := NewEngine()
	if _, err := e.Run(cfg, w); err != nil {
		t.Fatal(err)
	}
	for i := range e.decodes {
		if s := e.decodes[i].commScale; s != 1 {
			t.Errorf("decode %d ends at comm scale %v after heal", i, s)
		}
	}
}

func TestParseHedgePolicy(t *testing.T) {
	h, err := ParseHedgePolicy("0.5")
	if err != nil || h.Delay != 0.5 || h.TrackP95 {
		t.Errorf("ParseHedgePolicy(0.5) = %+v, %v", h, err)
	}
	h, err = ParseHedgePolicy("p95:0.3")
	if err != nil || h.Delay != 0.3 || !h.TrackP95 {
		t.Errorf("ParseHedgePolicy(p95:0.3) = %+v, %v", h, err)
	}
	for _, bad := range []string{"", "soon", "-1", "0", "p95", "p95:", "p95:-1", "p95:0", "NaN", "Inf"} {
		if _, err := ParseHedgePolicy(bad); err == nil {
			t.Errorf("ParseHedgePolicy(%q) accepted", bad)
		}
	}
}

// Invalid hazard plans and hedge policies must be rejected by
// Config.Validate (plane events are FaultPlan rows, see
// TestFaultPlanValidate).
func TestHazardPlanValidate(t *testing.T) {
	base := func() Config {
		cfg := V3ServeConfig()
		cfg.Resilience.Hazards = &HazardPlan{}
		return cfg
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, mutate := range map[string]func(*Config){
		"sdc rate above 1":  func(c *Config) { c.Resilience.Hazards.SDCRate = 1.5 },
		"negative trials":   func(c *Config) { c.Resilience.Hazards.VerifyTrials = -1 },
		"threshold below 1": func(c *Config) { c.Resilience.Hazards.DetectThreshold = 0.9 },
		"NaN threshold":     func(c *Config) { c.Resilience.Hazards.DetectThreshold = nan },
		"+Inf threshold":    func(c *Config) { c.Resilience.Hazards.DetectThreshold = inf },
		"negative repair":   func(c *Config) { c.Resilience.Hazards.QuarantineRepair = -1 },
		"NaN repair":        func(c *Config) { c.Resilience.Hazards.QuarantineRepair = nan },
		"+Inf repair":       func(c *Config) { c.Resilience.Hazards.QuarantineRepair = inf },
		"negative hedge":    func(c *Config) { c.Resilience.Hedge.Delay = -1 },
		"p95 without floor": func(c *Config) { c.Resilience.Hedge = HedgePolicy{TrackP95: true} },
	} {
		cfg := base()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
	}
	ok := base()
	ok.Resilience.Hazards = hazardTestPlan(true)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// Satellite: a huge retry budget must not walk the delay past the cap
// (or to +Inf) before capping.
func TestRetryPolicyDelayLargeBudget(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		d := retryDelay(n)
		if d < 0 || d > retryMaxBackoff {
			t.Fatalf("retryDelay(%d) = %v outside (0, %v]", n, d, retryMaxBackoff)
		}
	}
	if got := retryDelay(1); got != 0.25 {
		t.Errorf("retryDelay(1) = %v, want first backoff 0.25", got)
	}
	if got := retryDelay(1 << 20); got != 4 {
		t.Errorf("retryDelay(1<<20) = %v, want cap 4", got)
	}
}

// Satellite: AdmissionPolicy.String renders the CLI spec syntax, so
// every enabled policy must round-trip through ParseAdmissionPolicy.
func TestAdmissionPolicyStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 200; i++ {
		a := AdmissionPolicy{}
		switch rng.Intn(3) {
		case 0:
			a.MaxQueueDepth = 1 + rng.Intn(500)
		case 1:
			a.MaxKVOccupancy = 0.01 + 0.98*rng.Float64()
		default:
			a.MaxQueueDepth = 1 + rng.Intn(500)
			a.MaxKVOccupancy = 0.01 + 0.98*rng.Float64()
		}
		back, err := ParseAdmissionPolicy(a.String())
		if err != nil {
			t.Fatalf("ParseAdmissionPolicy(%q): %v", a.String(), err)
		}
		if back != a {
			t.Fatalf("round trip %q: got %+v, want %+v", a.String(), back, a)
		}
	}
	// The disabled policy renders a human label, not a parsable spec.
	if got := (AdmissionPolicy{}).String(); got != "admit-all" {
		t.Errorf("zero policy String() = %q", got)
	}
}

// Plane hazard events (degrade/heal) parse through the one incident
// script: k/T planes, ranges expanding to one event per instance,
// prefill targets, defaulted totals, and the plane-specific rejections.
func TestParseHazardEvents(t *testing.T) {
	evs, err := ParseFaultEvents("degrade@4:d1:6/8, heal@16:d1")
	if err != nil {
		t.Fatal(err)
	}
	want := []FaultEvent{
		{At: 4, Kind: FaultDegrade, Instance: 1, FailedPlanes: 6, TotalPlanes: 8},
		{At: 16, Kind: FaultHeal, Instance: 1},
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d", len(evs), len(want))
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
	evs, err = ParseFaultEvents("degrade@1:d0-2:1,degrade@2:p1:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("range expansion got %d events, want 4", len(evs))
	}
	for i, ev := range evs[:3] {
		if ev.Kind != FaultDegrade || ev.Instance != i || ev.Prefill || ev.FailedPlanes != 1 || ev.TotalPlanes != 0 {
			t.Errorf("range event %d = %+v", i, ev)
		}
	}
	if p := evs[3]; p.Kind != FaultDegrade || !p.Prefill || p.Instance != 1 || p.FailedPlanes != 3 {
		t.Errorf("prefill event = %+v", p)
	}

	for _, bad := range []string{
		"", "melt@1:d0:1", "degrade@x:d0:1", "degrade@NaN:d0:1", "degrade@Inf:d0:1",
		"degrade@1:q0:1", "degrade@1:d0", "heal@1:d0:1", "degrade@1:d2-0:1",
		"degrade@1:d0:x", "degrade@1:d0:1/x",
	} {
		if _, err := ParseFaultEvents(bad); err == nil {
			t.Errorf("ParseFaultEvents(%q) accepted", bad)
		}
	}
}

// Satellite: fault scripts with non-finite times must be rejected at
// parse, naming the offending item.
func TestParseFaultEventsNonFinite(t *testing.T) {
	for _, bad := range []string{"crash@NaN:d0", "crash@Inf:d1", "recover@-Inf:p0"} {
		_, err := ParseFaultEvents(bad)
		if err == nil {
			t.Errorf("ParseFaultEvents(%q) accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), bad) {
			t.Errorf("error %q does not name the item %q", err, bad)
		}
	}
}

// Incidents recorded without a FaultPlan (quarantines, gray drains)
// must survive report building: recovery resolution reads the plan's
// window through nil-safe accessors.
func TestHazardIncidentsWithoutFaultPlan(t *testing.T) {
	cfg := hazardTestConfig(true)
	cfg.Resilience.Faults = nil
	r := mustRun(t, cfg, testWorkload(5, 150))
	if len(r.Incidents) == 0 {
		t.Fatal("no incidents recorded")
	}
	for _, inc := range r.Incidents {
		if inc.Kind != "sdc" && inc.Kind != "gray-drain" {
			t.Errorf("unexpected incident kind %q", inc.Kind)
		}
	}
}

// A degrade's commScale must be exactly T/(T-k).
func TestPlaneHazardCommScale(t *testing.T) {
	for _, tc := range []struct {
		ev   FaultEvent
		want float64
	}{
		{FaultEvent{Kind: FaultDegrade, FailedPlanes: 6, TotalPlanes: 8}, 4},
		{FaultEvent{Kind: FaultDegrade, FailedPlanes: 4, TotalPlanes: 8}, 2},
		{FaultEvent{Kind: FaultDegrade, FailedPlanes: 4}, 2}, // default 8 planes
	} {
		if got := tc.ev.commScale(); got != tc.want {
			t.Errorf("commScale(%+v) = %v, want %v", tc.ev, got, tc.want)
		}
	}
}
