package servesim

import (
	"testing"
	"unsafe"

	"dsv3/internal/parallel"
)

// TestArenaMatchesGenerate pins the engine's single copy of the
// workload: after a run, the request arena holds exactly what the
// public Workload.Generate returns for the run's workload seed, field
// by field, with arena index equal to ID — for every arrival process,
// for sessions (sorted and renumbered), and for a trace with tied and
// out-of-order arrivals. A pooled engine whose previous run was larger
// must leave no stale entry behind.
func TestArenaMatchesGenerate(t *testing.T) {
	lengths := Workload{Prompt: LogNormal(256, 0.5), Output: LogNormal(128, 0.5)}
	with := func(f func(*Workload)) Workload {
		w := lengths
		f(&w)
		return w
	}
	workloads := []struct {
		name string
		w    Workload
	}{
		{"poisson", with(func(w *Workload) { w.Arrival, w.RatePerSec, w.Requests = ArrivalPoisson, 8, 90 })},
		{"bursty", with(func(w *Workload) {
			w.Arrival, w.RatePerSec, w.Requests = ArrivalBursty, 8, 90
			w.BurstOnMean, w.BurstOffMean = 2, 3
		})},
		{"diurnal", with(func(w *Workload) {
			w.Arrival, w.RatePerSec, w.Requests = ArrivalDiurnal, 8, 90
			w.DiurnalPeriod, w.DiurnalAmplitude = 5, 0.8
		})},
		{"sessions", with(func(w *Workload) {
			w.Arrival, w.RatePerSec, w.Requests = ArrivalPoisson, 3, 90
			w.Turns, w.ThinkTime = 3, 2
		})},
		{"trace", Workload{Arrival: ArrivalTrace, Trace: []Request{
			{ID: 7, Arrival: 2.0, PromptTokens: 300, OutputTokens: 40},
			{ID: 3, Arrival: 0.5, PromptTokens: 120, OutputTokens: 90},
			{ID: 9, Arrival: 2.0, PromptTokens: 800, OutputTokens: 10},
			{ID: 1, Arrival: 0.0, PromptTokens: 64, OutputTokens: 1},
			{ID: 4, Arrival: 0.5, PromptTokens: 512, OutputTokens: 200, Session: 2, Turn: 1},
			{ID: 5, Arrival: 1.25, PromptTokens: 90, OutputTokens: 33},
		}}},
	}
	cfg := V3ServeConfig()
	cfg.Seed = 5
	pooled := NewEngine()
	for _, tc := range workloads {
		w := tc.w
		t.Run(tc.name, func(t *testing.T) {
			// The pooled engine first runs a larger workload, so this run
			// reuses (and must fully overwrite) a longer arena.
			big := with(func(w *Workload) { w.Arrival, w.RatePerSec, w.Requests = ArrivalPoisson, 8, 200 })
			if _, err := pooled.Run(cfg, big); err != nil {
				t.Fatal(err)
			}
			want := w.Generate(parallel.DeriveSeed(cfg.Seed, 0))
			for _, e := range []*Engine{NewEngine(), pooled} {
				rep, err := e.Run(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Completed != len(want) || len(e.arena) != len(want) {
					t.Fatalf("completed %d, arena %d, generated %d", rep.Completed, len(e.arena), len(want))
				}
				for i := range want {
					if got := e.arena[i].Request; got != want[i] || got.ID != i {
						t.Fatalf("arena[%d] = %+v, Generate gives %+v", i, got, want[i])
					}
				}
			}
		})
	}
}

// reqState is 128 bytes: two per 256-byte span of the arena. Removed to
// get there: the preemption counter (written, never read), the stored
// KV context (always PromptTokens + generated, now ctx()), and the
// padding after a lone bool; the retry count and the tier-entry handle
// were narrowed to adjacent int32 fields.
func TestReqStateSize(t *testing.T) {
	if got := unsafe.Sizeof(reqState{}); got != 128 {
		t.Errorf("reqState is %d bytes, want 128", got)
	}
}
