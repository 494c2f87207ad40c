package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// script drives one small synthetic request lifecycle through a
// recorder: queue -> prefill -> transfer -> queue -> decode, preempted
// into backoff-free completion, plus a shed arrival and an incident.
func script(r *TraceRecorder) {
	r.BeginRun(RunInfo{Prefill: 1, Decode: 2})
	a := ReqInfo{ID: 0, Session: 1, PromptTokens: 128, OutputTokens: 64}
	r.Mark(0.5, a, MarkArrival)
	r.PhaseBegin(0.5, a, PhaseQueue, -1)
	r.PhaseEnd(1.0, 0)
	r.PhaseBegin(1.0, a, PhasePrefill, 0)
	r.Compute(1.0, 0.25, true, 0, ComputePrefill, 0)
	r.PhaseEnd(1.25, 0)
	r.PhaseBegin(1.25, a, PhaseTransfer, 1)
	r.PhaseEnd(1.5, 0)
	r.PhaseBegin(1.5, a, PhaseQueue, 1)
	r.PhaseEnd(1.5, 0)
	r.PhaseBegin(1.5, a, PhaseDecode, 1)
	r.Compute(1.5, 0.05, false, 1, ComputeDecodeStep, 3)
	r.PhaseEnd(2.0, 0)
	r.Mark(2.0, a, MarkComplete)
	b := ReqInfo{ID: 1, PromptTokens: 64, OutputTokens: 8}
	r.Mark(0.75, b, MarkShed)
	r.Incident(1.75, false, 0, "crash")
	r.EndRun(2.0)
}

func TestRecorderBreakdown(t *testing.T) {
	rec := NewTraceRecorder()
	script(rec)
	bds := rec.Breakdowns()
	if len(bds) != 2 {
		t.Fatalf("breakdowns: got %d, want 2", len(bds))
	}
	a := bds[0]
	if a.Outcome != "completed" {
		t.Errorf("req 0 outcome %q", a.Outcome)
	}
	if got, want := a.PhaseSum(), a.E2E(); math.Abs(got-want) > 1e-12 {
		t.Errorf("phase sum %v != e2e %v", got, want)
	}
	if a.Phases[PhaseQueue] != 0.5 || a.Phases[PhasePrefill] != 0.25 ||
		a.Phases[PhaseTransfer] != 0.25 || a.Phases[PhaseDecode] != 0.5 {
		t.Errorf("phase attribution %v", a.Phases)
	}
	if bds[1].Outcome != "shed" || bds[1].E2E() != 0 {
		t.Errorf("shed breakdown %+v", bds[1])
	}
	if pt := rec.PhaseTable(); len(pt.Rows) != 2 {
		t.Errorf("phase table rows: %d", len(pt.Rows))
	}
	if tt := rec.PhaseTotalsTable(); len(tt.Rows) != NumPhases {
		t.Errorf("totals rows: %d", len(tt.Rows))
	}
}

func TestRecorderJSONValidAndDeterministic(t *testing.T) {
	rec := NewTraceRecorder()
	script(rec)
	var one bytes.Buffer
	if err := rec.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(one.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	want := map[string]bool{
		"queue": false, "prefill": false, "transfer": false, "decode": false,
		"decode-step": false, "complete": false, "shed": false, "crash": false,
		"process_name": false,
	}
	for _, ev := range doc.TraceEvents {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace missing %q event", name)
		}
	}
	// A pooled recorder re-traces the same run byte-identically.
	script(rec)
	var two bytes.Buffer
	if err := rec.WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Error("re-traced run differs from first trace")
	}
	counts := rec.EventCounts()
	if len(counts) == 0 {
		t.Fatal("no event counts")
	}
	for i := 1; i < len(counts); i++ {
		a, b := counts[i-1], counts[i]
		if a.Kind > b.Kind || (a.Kind == b.Kind && a.Name >= b.Name) {
			t.Errorf("event counts not sorted: %v before %v", a, b)
		}
	}
}

func TestRegistrySampling(t *testing.T) {
	r := NewRegistry(0.5)
	r.Reset()
	q := r.Gauge("queue_depth", "req")
	c := r.Counter("completed", "req")
	fill := func(t, depth, done float64) {
		for {
			ts, ok := r.Due(t)
			if !ok {
				return
			}
			row := r.Scratch()
			row[q] = depth
			row[c] = done
			r.Commit(ts)
		}
	}
	fill(0.4, 3, 0)  // nothing due yet
	fill(1.6, 5, 2)  // commits 0.5, 1.0, 1.5
	fill(2.05, 1, 7) // commits 2.0
	if r.Samples() != 4 {
		t.Fatalf("samples: got %d, want 4", r.Samples())
	}
	if got := r.Value(3, c); got != 7 {
		t.Errorf("counter at last sample: %v", got)
	}
	if got := r.Value(1, q); got != 5 {
		t.Errorf("gauge carried forward: %v", got)
	}
	tab := r.Table()
	if len(tab.Rows) != 4 || len(tab.Columns) != 3 {
		t.Fatalf("table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	// Rows must not alias each other: each carries its own grid time.
	if tab.Rows[0][0].Text != "0.50" || tab.Rows[3][0].Text != "2.00" {
		t.Errorf("table times %q..%q, want 0.50..2.00", tab.Rows[0][0].Text, tab.Rows[3][0].Text)
	}
	if tab.Rows[1][2].Text != "2" || tab.Rows[3][2].Text != "7" {
		t.Errorf("table counter values %q, %q", tab.Rows[1][2].Text, tab.Rows[3][2].Text)
	}
	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 5 || lines[0] != "time,queue_depth,completed" {
		t.Fatalf("csv: %q", csv.String())
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Interval float64 `json:"interval"`
		Metrics  []struct {
			Name, Kind, Unit string
		} `json:"metrics"`
		Times   []float64   `json:"times"`
		Samples [][]float64 `json:"samples"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if doc.Interval != 0.5 || len(doc.Times) != 4 || len(doc.Samples) != 4 {
		t.Errorf("metrics doc shape: %+v", doc)
	}
	if doc.Metrics[1].Kind != "counter" {
		t.Errorf("kind: %+v", doc.Metrics[1])
	}
	// Reset drops definitions and samples for the next run.
	r.Reset()
	if r.Metrics() != 0 || r.Samples() != 0 {
		t.Error("reset kept state")
	}
}

func TestNames(t *testing.T) {
	phases := map[string]bool{}
	for p := 0; p < NumPhases; p++ {
		name := Phase(p).String()
		if name == "unknown" || phases[name] {
			t.Errorf("phase %d name %q", p, name)
		}
		phases[name] = true
	}
	marks := []Mark{MarkArrival, MarkShed, MarkPreempt, MarkOffload, MarkOrphan,
		MarkRetry, MarkPrefixHit, MarkComplete, MarkFailed}
	seen := map[string]bool{}
	for _, m := range marks {
		name := m.String()
		if name == "unknown" || seen[name] {
			t.Errorf("mark %d name %q", m, name)
		}
		seen[name] = true
	}
	if ComputePrefill.String() != "prefill" || ComputeDecodeStep.String() != "decode-step" {
		t.Error("compute kind names")
	}
	if NewRegistry(0).interval != DefaultMetricsInterval {
		t.Error("default interval")
	}
}
