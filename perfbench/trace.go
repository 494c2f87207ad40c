package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"dsv3/internal/obs"
	"dsv3/internal/units"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Times are host seconds since the recorder started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // duration minus the direct children's
}

// spanRecorder keeps spans in memory; write saves them when the run
// ends, so recording costs no I/O while measuring.
type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) now() float64 { return time.Since(r.t0).Seconds() }

// begin opens a span under parent (-1 for a root) and returns its ID.
func (r *spanRecorder) begin(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Start: r.now()})
	return len(r.spans) - 1
}

// end closes the span and returns its duration in seconds.
func (r *spanRecorder) end(id int) float64 {
	s := &r.spans[id]
	s.End = r.now()
	return s.End - s.Start
}

// add records a span measured elsewhere (a child process), given as
// wall-clock instants.
func (r *spanRecorder) add(name string, parent int, start, end time.Time) {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds()})
}

// timed runs fn inside a span and returns the span's duration.
func (r *spanRecorder) timed(name string, parent int, fn func()) float64 {
	id := r.begin(name, parent)
	fn()
	return r.end(id)
}

// write computes self times and saves the spans as JSON under
// .bench_build/, returning the path.
func (r *spanRecorder) write(o options, host map[string]any) (string, error) {
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].End - r.spans[i].Start
	}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			r.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	b, err := json.MarshalIndent(map[string]any{"host": host, "spans": r.spans}, "", " ")
	if err != nil {
		return "", err
	}
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// numMarks sizes the mark census; MarkHedgeWin is the last obs.Mark.
const numMarks = int(obs.MarkHedgeWin) + 1

// tracedPhases are the phases whose simulated seconds the benchmark
// reports (backoff only appears under fault injection).
var tracedPhases = []obs.Phase{obs.PhaseQueue, obs.PhasePrefill, obs.PhaseTransfer, obs.PhaseReload, obs.PhaseDecode}

// reqPhase is the tracer's per-request state within one run.
type reqPhase struct {
	open    bool
	ph      obs.Phase
	start   units.Seconds
	arrival units.Seconds
	sum     units.Seconds // closed phase time since arrival
}

// countingTracer is the benchmark's own obs.Tracer. It counts hook
// calls and sums simulated phase time across every run it observes,
// and checks that each completed request's phases tile its simulated
// end-to-end latency.
type countingTracer struct {
	compute     [2]int // by obs.ComputeKind
	marks       [numMarks]int
	phaseS      [obs.NumPhases]units.Seconds
	routerPicks int
	// maxTileErr is the largest |sum of phases - E2E| over completed
	// requests, in simulated seconds.
	maxTileErr units.Seconds

	colocated bool
	reqs      []reqPhase // indexed by request ID, reset per run
}

var _ obs.Tracer = (*countingTracer)(nil)

func (c *countingTracer) BeginRun(run obs.RunInfo) {
	c.colocated = run.Colocated
	clear(c.reqs)
}

func (c *countingTracer) req(id int) *reqPhase {
	for id >= len(c.reqs) {
		c.reqs = append(c.reqs, reqPhase{})
	}
	return &c.reqs[id]
}

// PhaseBegin also counts routing decisions: on a disaggregated fleet
// every prefill start follows a prefill-router pick and every transfer
// a decode-router pick.
func (c *countingTracer) PhaseBegin(t units.Seconds, req obs.ReqInfo, ph obs.Phase, inst int) {
	r := c.req(req.ID)
	r.open, r.ph, r.start = true, ph, t
	if ph == obs.PhaseTransfer || (ph == obs.PhasePrefill && !c.colocated) {
		c.routerPicks++
	}
}

func (c *countingTracer) PhaseEnd(t units.Seconds, reqID int) {
	r := c.req(reqID)
	if !r.open {
		return
	}
	d := t - r.start
	c.phaseS[r.ph] += d
	r.sum += d
	r.open = false
}

func (c *countingTracer) Mark(t units.Seconds, req obs.ReqInfo, m obs.Mark) {
	c.marks[m]++
	r := c.req(req.ID)
	switch m {
	case obs.MarkArrival:
		r.arrival, r.sum = t, 0
	case obs.MarkComplete:
		c.maxTileErr = max(c.maxTileErr, math.Abs(r.sum-(t-r.arrival)))
	}
}

func (c *countingTracer) Compute(_, _ units.Seconds, _ bool, _ int, kind obs.ComputeKind, _ int) {
	c.compute[kind]++
}

func (c *countingTracer) Incident(units.Seconds, bool, int, string) {}
func (c *countingTracer) EndRun(units.Seconds)                      {}

// tileTolerance bounds the floating-point drift of summing a request's
// phase durations against its E2E, in simulated seconds.
const tileTolerance = 1e-9

// checkTiling reports a request whose phases do not tile its E2E.
func (c *countingTracer) checkTiling() error {
	if c.maxTileErr > tileTolerance {
		return fmt.Errorf("phases miss a request's E2E by %g sim s", c.maxTileErr)
	}
	return nil
}

// metrics returns the tracer's counts as obs.* and router metrics.
func (c *countingTracer) metrics(m map[string]metric) {
	set(m, "obs.compute_prefill", float64(c.compute[obs.ComputePrefill]))
	set(m, "obs.compute_decode_step", float64(c.compute[obs.ComputeDecodeStep]))
	for k := range numMarks {
		set(m, "obs.mark."+obs.Mark(k).String(), float64(c.marks[k]))
	}
	for _, ph := range tracedPhases {
		set(m, "obs.sim_phase_s."+ph.String(), c.phaseS[ph])
	}
	set(m, "servesim.router_picks", float64(c.routerPicks))
}
