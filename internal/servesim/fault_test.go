package servesim

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"dsv3/internal/obs"
	"dsv3/internal/units"
)

// crashPlan schedules one decode crash with repair — the reference
// incident used across the fault tests.
func crashPlan(inst int, at, repair units.Seconds) *FaultPlan {
	return &FaultPlan{Events: []FaultEvent{
		{At: at, Kind: FaultCrash, Instance: inst},
		{At: repair, Kind: FaultRecover, Instance: inst},
	}}
}

// The determinism contract extends to faulted runs: same seed, config
// and plan must reproduce the report — incidents included — byte for
// byte, and a faulted run must differ from the clean one.
func TestFaultDeterminism(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.4e9
	cfg.Resilience.Faults = crashPlan(1, 6, 14)
	cfg.Resilience.MaxRetries = 3
	w := testWorkload(5, 150)
	a, err := json.Marshal(mustRun(t, cfg, w))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mustRun(t, cfg, w))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("faulted runs diverged:\n%s\n%s", a, b)
	}
	clean := cfg
	clean.Resilience.Faults = nil
	c, err := json.Marshal(mustRun(t, clean, w))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) == string(c) {
		t.Error("faulted report identical to fault-free report")
	}
}

// MTBF-style random injection must also reproduce byte for byte: the
// fault RNG is its own seed stream, untouched by workload and routing.
func TestRandomFaultDeterminism(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.Resilience.Faults = &FaultPlan{MTBF: 8, MTTR: 2}
	cfg.Resilience.MaxRetries = 3
	w := testWorkload(5, 120)
	a, err := json.Marshal(mustRun(t, cfg, w))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mustRun(t, cfg, w))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("random-fault runs diverged")
	}
}

// Every offered request must be accounted for across completion,
// failure and shedding, and the crash's blast radius must show up in
// the incident log and the KV-loss counters.
func TestCrashBlastRadiusAccounting(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.4e9
	cfg.Resilience.Faults = crashPlan(1, 6, 14)
	w := testWorkload(6, 150)
	r := mustRun(t, cfg, w)
	if r.Requests != w.Requests {
		t.Fatalf("offered %d, want %d", r.Requests, w.Requests)
	}
	if r.Completed+r.Failed+r.Shed != r.Requests {
		t.Fatalf("conservation: %d completed + %d failed + %d shed != %d offered",
			r.Completed, r.Failed, r.Shed, r.Requests)
	}
	if len(r.Incidents) != 1 {
		t.Fatalf("incidents %d, want 1", len(r.Incidents))
	}
	in := r.Incidents[0]
	if in.At != 6 || in.Instance != 1 || in.Prefill {
		t.Errorf("incident %+v, want d1 at t=6", in)
	}
	if in.Orphaned == 0 || in.KVTokensLost == 0 {
		t.Errorf("crash under load orphaned %d requests / %d tokens, want > 0", in.Orphaned, in.KVTokensLost)
	}
	if r.AffectedRequests < in.Orphaned || r.KVTokensLost != in.KVTokensLost {
		t.Errorf("report affected=%d kvLost=%d vs incident orphaned=%d kvLost=%d",
			r.AffectedRequests, r.KVTokensLost, in.Orphaned, in.KVTokensLost)
	}
	// Without a retry policy every orphan fails.
	if r.Failed != r.AffectedRequests {
		t.Errorf("no-retry run failed %d of %d affected", r.Failed, r.AffectedRequests)
	}
}

// A retry budget converts failures into retries: same incident, zero
// failed requests, amplification above 1.
func TestRetrySalvagesOrphans(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.4e9
	cfg.Resilience.Faults = crashPlan(1, 6, 14)
	w := testWorkload(6, 150)
	base := mustRun(t, cfg, w)
	if base.Failed == 0 {
		t.Skip("crash orphaned nothing at this seed; accounting covered elsewhere")
	}
	cfg.Resilience.MaxRetries = 3
	r := mustRun(t, cfg, w)
	if r.Failed != 0 {
		t.Errorf("failed %d with a 3-retry budget, want 0", r.Failed)
	}
	if r.Retried == 0 || r.Retries < r.Retried {
		t.Errorf("retried=%d retries=%d, want retried > 0 and retries >= retried", r.Retried, r.Retries)
	}
	if r.RetryAmplification <= 1 {
		t.Errorf("retry amplification %v, want > 1", r.RetryAmplification)
	}
	if r.Completed != r.Requests {
		t.Errorf("completed %d of %d with retries", r.Completed, r.Requests)
	}
}

// Draining is planned degradation: held work finishes (no orphans, no
// KV loss, no incident), but the instance takes no new work while
// drained, so load shifts relative to the clean run.
func TestDrainFinishesHeldWork(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.4e9
	cfg.Resilience.Faults = &FaultPlan{Events: []FaultEvent{
		{At: 5, Kind: FaultDrain, Instance: 1},
		{At: 15, Kind: FaultRecover, Instance: 1},
	}}
	w := testWorkload(6, 150)
	r := mustRun(t, cfg, w)
	if len(r.Incidents) != 0 {
		t.Errorf("drain produced %d incidents, want 0", len(r.Incidents))
	}
	if r.Failed != 0 || r.AffectedRequests != 0 || r.KVTokensLost != 0 {
		t.Errorf("drain lost work: failed=%d affected=%d kvLost=%d", r.Failed, r.AffectedRequests, r.KVTokensLost)
	}
	if r.Completed != r.Requests {
		t.Errorf("completed %d of %d under drain", r.Completed, r.Requests)
	}
}

// Queue-depth admission keeps the prefill backlog bounded under
// overload: arrivals past the cap are shed, and the admitted requests'
// TTFT tail stays below the admit-all run's.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.KV.HBM.CapacityBytes = 0.4e9
	w := testWorkload(14, 200)
	base := mustRun(t, cfg, w)
	cfg.Resilience.Admission = AdmissionPolicy{MaxQueueDepth: 16}
	r := mustRun(t, cfg, w)
	if r.Shed == 0 {
		t.Fatal("overloaded run shed nothing at queue cap 16")
	}
	if r.Completed+r.Shed != r.Requests {
		t.Errorf("conservation: %d completed + %d shed != %d", r.Completed, r.Shed, r.Requests)
	}
	if r.TTFT.P99 >= base.TTFT.P99 {
		t.Errorf("shedding TTFT p99 %v not below admit-all %v", r.TTFT.P99, base.TTFT.P99)
	}
}

// A fully-drained fleet must not stall the simulator: requests whose
// prefill completes while every decode instance is unavailable are
// orphaned, and without retries they fail deterministically.
func TestFullyDrainedFleetFailsFast(t *testing.T) {
	cfg := V3ServeConfig()
	cfg.Fleet.PrefillInstances, cfg.Fleet.DecodeInstances = 1, 2
	cfg.Resilience.Faults = &FaultPlan{Events: []FaultEvent{
		{At: 0, Kind: FaultDrain, Instance: 0},
		{At: 0, Kind: FaultDrain, Instance: 1},
	}}
	w := testWorkload(4, 20)
	r := mustRun(t, cfg, w)
	if r.Completed != 0 || r.Failed != r.Requests {
		t.Errorf("drained fleet completed %d / failed %d of %d, want 0 / all", r.Completed, r.Failed, r.Requests)
	}
}

// Crashing an instance drains its pending fifo mid-queue; the fifo's
// clearPtrs/reset teardown must leave no request pointers behind in the
// recycled buffer.
func TestFifoTeardownLeavesNoPointers(t *testing.T) {
	var f fifo
	reqs := make([]reqState, 6)
	for i := range reqs {
		f.push(&reqs[i])
	}
	f.pop()
	f.pop() // head advanced mid-buffer, as after a partial drain
	f.reset()
	if f.len() != 0 || f.head != 0 {
		t.Fatalf("reset left len=%d head=%d", f.len(), f.head)
	}
	for i, p := range f.buf[:cap(f.buf)] {
		if p != nil {
			t.Fatalf("reset left request pointer at slot %d", i)
		}
	}
	// pop also nils the vacated slot so a long-lived queue never pins
	// request state it has already handed out.
	f.push(&reqs[0])
	f.push(&reqs[1])
	f.pop()
	if f.buf[0] != nil {
		t.Error("pop left the vacated slot pointing at a request")
	}
}

// lifecycleTracer records instance incidents and prefill compute
// slices; every other hook goes to the embedded TraceRecorder.
type lifecycleTracer struct {
	*obs.TraceRecorder
	incidents map[bool][]string // by pool (prefill?): "p0 degrade", ...
	prefills  []prefillSlice
}

type prefillSlice struct {
	inst       int
	start, dur units.Seconds
}

func (r *lifecycleTracer) Incident(t units.Seconds, prefill bool, inst int, kind string) {
	pool := "d"
	if prefill {
		pool = "p"
	}
	r.incidents[prefill] = append(r.incidents[prefill], fmt.Sprintf("%s%d %s", pool, inst, kind))
}

func (r *lifecycleTracer) Compute(start, dur units.Seconds, prefill bool, inst int, kind obs.ComputeKind, v int) {
	if prefill && kind == obs.ComputePrefill {
		r.prefills = append(r.prefills, prefillSlice{inst, start, dur})
	}
}

// Every fault kind runs on both pools through the one instance
// lifecycle: each transition is traced on the right pool, leaves the
// right final health, a degraded prefill instance prefills slower for
// exactly its degraded span, and crashes on either pool report their
// incident rows.
func TestFaultKindsOnBothPools(t *testing.T) {
	const prompt = 1024
	cfg := V3ServeConfig()
	cfg.Fleet.PrefillInstances, cfg.Fleet.DecodeInstances = 2, 2
	cfg.Resilience.MaxRetries = 3
	cfg.Resilience.Faults = &FaultPlan{Events: []FaultEvent{
		{At: 1, Kind: FaultDegrade, Prefill: true, Instance: 0, FailedPlanes: 4},
		{At: 1, Kind: FaultDegrade, Instance: 0, FailedPlanes: 4},
		{At: 3, Kind: FaultHeal, Prefill: true, Instance: 0},
		{At: 3, Kind: FaultHeal, Instance: 0},
		{At: 3.5, Kind: FaultDrain, Instance: 0},
		{At: 4, Kind: FaultDrain, Prefill: true, Instance: 1},
		{At: 4, Kind: FaultRecover, Instance: 0},
		{At: 5, Kind: FaultCrash, Prefill: true, Instance: 0},
		{At: 5, Kind: FaultCrash, Instance: 1},
		{At: 6, Kind: FaultRecover, Prefill: true, Instance: 0},
	}}
	w := Workload{Arrival: ArrivalPoisson, RatePerSec: 8, Requests: 80, Prompt: Fixed(prompt), Output: Fixed(64)}
	tr := &lifecycleTracer{TraceRecorder: obs.NewTraceRecorder(), incidents: map[bool][]string{}}
	eng := NewEngine()
	eng.AttachTracer(tr)
	r, err := eng.Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed+r.Failed+r.Shed != r.Requests {
		t.Fatalf("conservation: %d completed + %d failed + %d shed != %d offered",
			r.Completed, r.Failed, r.Shed, r.Requests)
	}

	wantIncidents := map[bool][]string{
		true:  {"p0 degrade", "p0 heal", "p1 drain", "p0 crash", "p0 recover"},
		false: {"d0 degrade", "d0 heal", "d0 drain", "d0 recover", "d1 crash"},
	}
	for _, prefill := range []bool{true, false} {
		if got := tr.incidents[prefill]; !slices.Equal(got, wantIncidents[prefill]) {
			t.Errorf("prefill=%v incidents %q, want %q", prefill, got, wantIncidents[prefill])
		}
	}

	for _, c := range []struct {
		prefill bool
		inst    int
		want    healthState
	}{
		{true, 0, healthUp}, {true, 1, healthDraining},
		{false, 0, healthUp}, {false, 1, healthDown},
	} {
		u := eng.unit(c.prefill, c.inst)
		if u.health != c.want || u.commScale != 1 {
			t.Errorf("prefill=%v inst %d ends %d (comm x%v), want %d (x1)", c.prefill, c.inst, u.health, u.commScale, c.want)
		}
	}

	// Before the crashes nothing re-prefills, so every prefill slice
	// processes exactly the prompt: p0 pays the 4-of-8-planes comm
	// slowdown while degraded, every other slice the healthy time.
	healthy := cfg.Latency.prefillTime(eng.lc, prompt, 1)
	degraded := cfg.Latency.prefillTime(eng.lc, prompt, 2)
	if degraded <= healthy {
		t.Fatalf("degraded prefill %v not slower than healthy %v", degraded, healthy)
	}
	var slow, fast int
	for _, s := range tr.prefills {
		if s.start >= 5 {
			continue
		}
		want := healthy
		if s.inst == 0 && s.start >= 1 && s.start < 3 {
			want, slow = degraded, slow+1
		} else if s.inst == 0 {
			fast++
		}
		if s.dur != want {
			t.Errorf("p%d prefill at %.3f took %v, want %v", s.inst, s.start, s.dur, want)
		}
	}
	if slow == 0 || fast == 0 {
		t.Errorf("p0 ran %d degraded and %d healthy prefills, want both > 0", slow, fast)
	}

	if len(r.Incidents) != 2 {
		t.Fatalf("incidents %+v, want the two crashes", r.Incidents)
	}
	for i, want := range []Incident{
		{At: 5, Instance: 0, Prefill: true, Kind: "crash"},
		{At: 5, Instance: 1, Kind: "crash"},
	} {
		got := r.Incidents[i]
		if got.At != want.At || got.Instance != want.Instance || got.Prefill != want.Prefill || got.Kind != want.Kind {
			t.Errorf("incident %d = %+v, want %+v", i, got, want)
		}
	}
	if in := r.Incidents[0]; in.Orphaned > 1 || (in.Orphaned == 1) != (in.KVTokensLost == prompt) {
		t.Errorf("prefill crash orphaned %d / lost %d tokens, want at most its one in-flight prompt", in.Orphaned, in.KVTokensLost)
	}
	if in := r.Incidents[1]; in.Orphaned == 0 || in.KVTokensLost == 0 {
		t.Errorf("decode crash under load orphaned %d / lost %d tokens, want > 0", in.Orphaned, in.KVTokensLost)
	}
	if got := r.Incidents[0].KVTokensLost + r.Incidents[1].KVTokensLost; r.KVTokensLost != got {
		t.Errorf("report KV lost %d, incidents sum %d", r.KVTokensLost, got)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	nan, inf := units.Seconds(math.NaN()), units.Seconds(math.Inf(1))
	bad := map[string]FaultPlan{
		"negative time":                 {Events: []FaultEvent{{At: -1, Kind: FaultCrash}}},
		"NaN time":                      {Events: []FaultEvent{{At: nan, Kind: FaultCrash, Instance: 1}}},
		"+Inf time":                     {Events: []FaultEvent{{At: inf, Kind: FaultCrash, Instance: 1}}},
		"NaN degrade time":              {Events: []FaultEvent{{At: nan, Kind: FaultDegrade, FailedPlanes: 1}}},
		"unknown kind":                  {Events: []FaultEvent{{Kind: FaultKind(9)}}},
		"decode out of range":           {Events: []FaultEvent{{Kind: FaultCrash, Instance: 4}}},
		"prefill out of range":          {Events: []FaultEvent{{Kind: FaultCrash, Prefill: true, Instance: 2}}},
		"negative instance":             {Events: []FaultEvent{{Kind: FaultHeal, Instance: -1}}},
		"degrade decode out of range":   {Events: []FaultEvent{{At: 1, Kind: FaultDegrade, Instance: 99, FailedPlanes: 1}}},
		"degrade prefill out of range":  {Events: []FaultEvent{{At: 1, Kind: FaultDegrade, Prefill: true, Instance: 99, FailedPlanes: 1}}},
		"degrade negative time":         {Events: []FaultEvent{{At: -1, Kind: FaultDegrade, FailedPlanes: 1}}},
		"degrade all planes failed":     {Events: []FaultEvent{{At: 1, Kind: FaultDegrade, FailedPlanes: 8, TotalPlanes: 8}}},
		"degrade zero planes failed":    {Events: []FaultEvent{{At: 1, Kind: FaultDegrade, FailedPlanes: 0, TotalPlanes: 8}}},
		"degrade single-plane fabric":   {Events: []FaultEvent{{At: 1, Kind: FaultDegrade, FailedPlanes: 1, TotalPlanes: 1}}},
		"degrade negative total planes": {Events: []FaultEvent{{At: 1, Kind: FaultDegrade, FailedPlanes: 1, TotalPlanes: -8}}},
		"negative MTBF":                 {MTBF: -1},
		"NaN MTBF":                      {MTBF: nan},
		"+Inf MTBF":                     {MTBF: inf},
		"NaN MTTR":                      {MTBF: 4, MTTR: nan},
		"+Inf MTTR":                     {MTBF: 4, MTTR: inf},
	}
	for name, plan := range bad {
		cfg := V3ServeConfig()
		cfg.Resilience.Faults = &plan
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: plan validated: %+v", name, plan)
		}
	}
	// Colocated fleets have no prefill targets, for any kind.
	cfg := V3ServeConfig()
	cfg.Fleet.Colocated = true
	for _, kind := range []FaultKind{FaultCrash, FaultDegrade} {
		cfg.Resilience.Faults = &FaultPlan{Events: []FaultEvent{{Kind: kind, Prefill: true, FailedPlanes: 1}}}
		if err := cfg.Validate(); err == nil {
			t.Errorf("prefill %v target accepted on a colocated cluster", kind)
		}
	}
	// ...but their merged instance space covers prefill+decode.
	cfg.Resilience.Faults = &FaultPlan{Events: []FaultEvent{{Kind: FaultCrash, Instance: 5}}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("colocated instance 5 of 2P+4D rejected: %v", err)
	}
	// Every kind validates on a well-formed target; plane counts only
	// bind degrade.
	cfg = V3ServeConfig()
	cfg.Resilience.Faults = &FaultPlan{Events: []FaultEvent{
		{At: 1, Kind: FaultCrash, Instance: 3},
		{At: 2, Kind: FaultRecover, Instance: 3},
		{At: 3, Kind: FaultDrain, Prefill: true, Instance: 1},
		{At: 4, Kind: FaultDegrade, Instance: 0, FailedPlanes: 7},
		{At: 5, Kind: FaultHeal, Instance: 0},
	}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("mixed-kind plan rejected: %v", err)
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	want := []units.Seconds{0.25, 0.5, 1, 2, 4, 4}
	for i, w := range want {
		if got := retryDelay(i + 1); got != w {
			t.Errorf("retryDelay(%d) = %v, want %v", i+1, got, w)
		}
	}
	cfg := V3ServeConfig()
	cfg.Resilience.MaxRetries = -1
	if cfg.Validate() == nil {
		t.Error("negative retry budget validated")
	}
	// reqState counts retries in an int32.
	cfg.Resilience.MaxRetries = math.MaxInt32
	if err := cfg.Validate(); err != nil {
		t.Errorf("retry budget MaxInt32: %v", err)
	}
	cfg.Resilience.MaxRetries = math.MaxInt32 + 1
	if cfg.Validate() == nil {
		t.Error("retry budget beyond MaxInt32 validated")
	}
}

// TestParseFaultEvents covers the one incident-script syntax across all
// five kinds: targets and ranges on every kind, k[/T] planes on
// degrade, and the rejections.
func TestParseFaultEvents(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []FaultEvent
	}{
		{"crash@8:d1, recover@16:d1, drain@2:p0", []FaultEvent{
			{At: 8, Kind: FaultCrash, Instance: 1},
			{At: 16, Kind: FaultRecover, Instance: 1},
			{At: 2, Kind: FaultDrain, Prefill: true},
		}},
		{"crash@1:d0-2", []FaultEvent{
			{At: 1, Kind: FaultCrash, Instance: 0},
			{At: 1, Kind: FaultCrash, Instance: 1},
			{At: 1, Kind: FaultCrash, Instance: 2},
		}},
		{"degrade@4:d1:6/8, heal@16:d1", []FaultEvent{
			{At: 4, Kind: FaultDegrade, Instance: 1, FailedPlanes: 6, TotalPlanes: 8},
			{At: 16, Kind: FaultHeal, Instance: 1},
		}},
		{"degrade@2:p1:3,drain@3:p0-1,heal@5:d2", []FaultEvent{
			{At: 2, Kind: FaultDegrade, Prefill: true, Instance: 1, FailedPlanes: 3},
			{At: 3, Kind: FaultDrain, Prefill: true, Instance: 0},
			{At: 3, Kind: FaultDrain, Prefill: true, Instance: 1},
			{At: 5, Kind: FaultHeal, Instance: 2},
		}},
	} {
		evs, err := ParseFaultEvents(tc.spec)
		if err != nil {
			t.Errorf("ParseFaultEvents(%q): %v", tc.spec, err)
			continue
		}
		if !slices.Equal(evs, tc.want) {
			t.Errorf("ParseFaultEvents(%q) =\n %+v\nwant\n %+v", tc.spec, evs, tc.want)
		}
	}
	for _, bad := range []string{
		"", "crash@8", "melt@1:d0", "crash@x:d1", "crash@8:q1", "crash@8:d", "crash@-1:d0",
		"crash@1:d2-0", "degrade@1:d0:8/8", "degrade@1:d0:0", "degrade@1:d0", "heal@1:d0:2",
		"crash@1:d0:2", "degrade@1:d0:x", "degrade@1:d0:1/x", "degrade@NaN:d0:1",
	} {
		if _, err := ParseFaultEvents(bad); err == nil {
			t.Errorf("ParseFaultEvents(%q) succeeded, want error", bad)
		}
	}
}

func TestParseAdmissionPolicy(t *testing.T) {
	a, err := ParseAdmissionPolicy("queue=32, kv=0.9")
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxQueueDepth != 32 || a.MaxKVOccupancy != 0.9 {
		t.Errorf("parsed %+v", a)
	}
	if a.String() != "queue=32,kv=0.9" {
		t.Errorf("String() = %q", a.String())
	}
	if (AdmissionPolicy{}).String() != "admit-all" {
		t.Errorf("zero policy String() = %q", AdmissionPolicy{}.String())
	}
	for _, bad := range []string{"queue", "depth=3", "queue=x", "kv=2", "queue=-1", "kv=NaN"} {
		if _, err := ParseAdmissionPolicy(bad); err == nil {
			t.Errorf("ParseAdmissionPolicy(%q) succeeded, want error", bad)
		}
	}
}

// ParseTrace rejects negative arrivals and non-positive token counts
// with the offending line number (comments and blank lines counted),
// and surfaces scanner read errors instead of truncating silently.
func TestParseTraceRejectsNegativesAndReadErrors(t *testing.T) {
	cases := []struct{ in, frag string }{
		{"0,128,32\n-1,128,32\n", "line 2"},
		{"0,128,32\n1,-5,32\n", "line 2"},
		{"# header\n0,128,-2\n", "line 2"},
		{"0.5,0,10\n", "line 1: prompt tokens must be positive, got 0"},
		{"0.5,100,0\n", "line 1: output tokens must be positive, got 0"},
		{"# header\n\n0,128,32\n1,0,32\n", "line 4: prompt tokens"},
	}
	for _, c := range cases {
		_, err := ParseTrace(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ParseTrace(%q) err = %v, want mention of %s", c.in, err, c.frag)
		}
	}
	if _, err := ParseTrace(errReader{}); err == nil {
		t.Error("read error swallowed")
	}
}

// errReader fails after the first read, exercising the sc.Err() path.
type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errTruncated }

var errTruncated = &truncErr{}

type truncErr struct{}

func (*truncErr) Error() string { return "simulated read failure" }
