package servesim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dsv3/internal/obs"
	"dsv3/internal/parallel"
)

// tracedConfig is the observability reference run: the tiered
// deployment under multi-turn traffic with a crash mid-run, so one
// trace exercises offload, reload, prefix hits, orphaning and retries.
func tracedConfig() (Config, Workload) {
	cfg := tieredConfig()
	cfg.Resilience.Faults = crashPlan(1, 6, 14)
	cfg.Resilience.MaxRetries = 3
	return cfg, sessionWorkload(4, 150)
}

// traceRun executes the reference run on eng with rec attached and
// returns the exported trace bytes.
func traceRun(t *testing.T, eng *Engine, rec *obs.TraceRecorder) ([]byte, *Report) {
	t.Helper()
	cfg, w := tracedConfig()
	eng.AttachTracer(rec)
	rep, err := eng.Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// TestTraceDeterminism pins the issue's headline guarantee: the
// trace-event JSON of the tiered+faulted reference run is
// byte-identical across worker-pool widths and across pooled vs fresh
// engines — and actually contains the interesting events.
func TestTraceDeterminism(t *testing.T) {
	run := func(workers int, eng *Engine) ([]byte, *Report) {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		return traceRun(t, eng, obs.NewTraceRecorder())
	}
	base, rep := run(1, NewEngine())
	wide, _ := run(8, NewEngine())
	if !bytes.Equal(base, wide) {
		t.Error("trace differs between worker counts 1 and 8")
	}
	// A pooled engine that already ran something else re-traces
	// identically: BeginRun must fully reset recorder and hooks.
	pooled := NewEngine()
	if _, err := pooled.Run(V3ServeConfig(), testWorkload(5, 60)); err != nil {
		t.Fatal(err)
	}
	again, _ := run(4, pooled)
	if !bytes.Equal(base, again) {
		t.Error("trace differs between pooled and fresh engines")
	}
	// The guarantee is vacuous unless the run exercised the machinery.
	if rep.KVOffloads == 0 || rep.KVReloads == 0 {
		t.Errorf("offload/reload idle: %d/%d", rep.KVOffloads, rep.KVReloads)
	}
	if len(rep.Incidents) == 0 || rep.Retries == 0 {
		t.Errorf("faults idle: %d incidents, %d retries", len(rep.Incidents), rep.Retries)
	}
	if rep.PrefixHits == 0 {
		t.Errorf("prefix cache idle")
	}
	for _, want := range []string{
		`"name":"prefill"`, `"name":"decode-step"`, `"name":"reload"`,
		`"name":"transfer"`, `"name":"retry"`, `"name":"offload"`,
		`"name":"crash"`, `"name":"recover"`, `"name":"prefix-hit"`,
		`"name":"complete"`,
	} {
		if !bytes.Contains(base, []byte(want)) {
			t.Errorf("trace missing %s event", want)
		}
	}
}

// TestTraceDoesNotPerturb: attaching a tracer and a metrics registry
// must not change the simulation — the report is byte-identical to an
// untraced run's.
func TestTraceDoesNotPerturb(t *testing.T) {
	cfg, w := tracedConfig()
	plain := reportJSON(t, mustRun(t, cfg, w))
	eng := NewEngine()
	eng.AttachTracer(obs.NewTraceRecorder())
	eng.AttachMetrics(obs.NewRegistry(0.5))
	rep, err := eng.Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if traced := reportJSON(t, rep); !bytes.Equal(plain, traced) {
		t.Error("attaching observability changed the report")
	}
	// Detaching restores the plain path on the same engine.
	eng.AttachTracer(nil)
	eng.AttachMetrics(nil)
	rep, err = eng.Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if detached := reportJSON(t, rep); !bytes.Equal(plain, detached) {
		t.Error("detached engine report differs from plain run")
	}
}

// TestTracePhaseReconciliation pins the phase-attribution invariant:
// every resolved request's queue+prefill+transfer+reload+decode+backoff
// spans sum to its end-to-end latency, because consecutive phases share
// their boundary instants.
func TestTracePhaseReconciliation(t *testing.T) {
	rec := obs.NewTraceRecorder()
	_, rep := traceRun(t, NewEngine(), rec)
	bds := rec.Breakdowns()
	if len(bds) != rep.Completed+rep.Failed+rep.Shed {
		t.Fatalf("breakdowns %d, want %d resolved requests",
			len(bds), rep.Completed+rep.Failed+rep.Shed)
	}
	for _, b := range bds {
		e2e, sum := b.E2E(), b.PhaseSum()
		tol := 1e-9 * math.Max(1, e2e)
		if math.Abs(e2e-sum) > tol {
			t.Errorf("req %d (%s): phases sum to %.12f, e2e %.12f", b.ID, b.Outcome, sum, e2e)
		}
	}
	counts := rec.EventCounts()
	total := 0
	for _, c := range counts {
		total += c.N
	}
	if total == 0 || rec.Events() == 0 {
		t.Fatal("no events recorded")
	}
}

// TestTraceMetrics checks the sampled series: a fixed grid, counters
// monotone non-decreasing, final counter values matching the report,
// and byte-identical CSV across engines.
func TestTraceMetrics(t *testing.T) {
	cfg, w := tracedConfig()
	run := func() (*obs.Registry, *Report) {
		eng := NewEngine()
		reg := obs.NewRegistry(0.5)
		eng.AttachMetrics(reg)
		rep, err := eng.Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return reg, rep
	}
	reg, rep := run()
	if reg.Samples() < 10 {
		t.Fatalf("only %d samples", reg.Samples())
	}
	names := map[string]int{}
	tab := reg.Table()
	for j, col := range tab.Columns {
		names[col.Name] = j - 1 // skip the Time column
	}
	for _, name := range []string{"queue_depth", "running_batch", "kv_occupancy",
		"healthy_instances", "completed", "retries", "dram_occupancy", "flash_bytes_in"} {
		if _, ok := names[name]; !ok {
			t.Errorf("metric %q not registered", name)
		}
	}
	last := reg.Samples() - 1
	for _, c := range []struct {
		name string
		want float64
	}{
		{"completed", float64(rep.Completed)},
		{"failed", float64(rep.Failed)},
		{"kv_offloads", float64(rep.KVOffloads)},
		{"kv_reloads", float64(rep.KVReloads)},
	} {
		// The last grid instant precedes the final events, so the sampled
		// counter is a lower bound on the report total.
		if got := reg.Value(last, names[c.name]); got > c.want {
			t.Errorf("%s: sampled %v exceeds report total %v", c.name, got, c.want)
		}
	}
	for _, name := range []string{"completed", "retries", "kv_offloads", "kv_reloads",
		"dram_bytes_in", "flash_bytes_out"} {
		j := names[name]
		for i := 1; i < reg.Samples(); i++ {
			if reg.Value(i, j) < reg.Value(i-1, j) {
				t.Errorf("counter %s decreases at sample %d", name, i)
			}
		}
	}
	var a, b strings.Builder
	if err := reg.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	reg2, _ := run()
	if err := reg2.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("metrics CSV differs between identical runs")
	}
}
