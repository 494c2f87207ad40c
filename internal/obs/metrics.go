package obs

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"dsv3/internal/results"
	"dsv3/internal/units"
)

// MetricKind distinguishes sampled metric semantics.
type MetricKind uint8

const (
	// Gauge samples an instantaneous level (queue depth, occupancy).
	Gauge MetricKind = iota
	// Counter samples a cumulative, monotonically non-decreasing total
	// (completions, retries, bytes moved).
	Counter
)

// String returns the kind's emitter name.
func (k MetricKind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// DefaultMetricsInterval is the sampling cadence used when a Registry
// is built with a non-positive interval.
const DefaultMetricsInterval units.Seconds = 0.5

// Registry is the time-series half of the observability layer: a flat
// set of gauges and counters sampled on a fixed simulated-time grid.
// The producer (the serving engine) registers its metric set at run
// start, then fills one row per grid instant via Due/Scratch/Commit;
// state between simulation events is constant, so carrying the current
// snapshot onto the grid is exact, not an approximation. Buffers are
// reused across runs (Reset), and all emitters format with fixed
// strconv rules, so output is byte-identical for identical runs.
type Registry struct {
	interval units.Seconds
	names    []string
	units    []string
	kinds    []MetricKind
	times    []units.Seconds
	data     []units.Seconds // row-major: sample i, metric j at i*len(names)+j
	scratch  []units.Seconds
	next     units.Seconds
}

// NewRegistry returns a registry sampling every interval simulated
// seconds (DefaultMetricsInterval when interval <= 0).
func NewRegistry(interval units.Seconds) *Registry {
	if interval <= 0 {
		interval = DefaultMetricsInterval
	}
	return &Registry{interval: interval, next: interval}
}

// Reset drops the metric definitions and samples for a new run,
// keeping the buffers. The producer re-registers its metrics after
// Reset; the first sample lands at one interval.
func (r *Registry) Reset() {
	r.names = r.names[:0]
	r.units = r.units[:0]
	r.kinds = r.kinds[:0]
	r.times = r.times[:0]
	r.data = r.data[:0]
	r.next = r.interval
}

func (r *Registry) register(name, unit string, kind MetricKind) int {
	r.names = append(r.names, name)
	r.units = append(r.units, unit)
	r.kinds = append(r.kinds, kind)
	return len(r.names) - 1
}

// Gauge registers a gauge and returns its column index.
func (r *Registry) Gauge(name, unit string) int { return r.register(name, unit, Gauge) }

// Counter registers a counter and returns its column index.
func (r *Registry) Counter(name, unit string) int { return r.register(name, unit, Counter) }

// Metrics returns the number of registered metrics.
func (r *Registry) Metrics() int { return len(r.names) }

// Samples returns the number of committed sample rows.
func (r *Registry) Samples() int { return len(r.times) }

// Due reports whether a grid instant at or before t is pending, and
// which. The producer loops Due/Scratch/Commit until Due returns
// false, so a long gap between events commits every covered instant.
func (r *Registry) Due(t units.Seconds) (units.Seconds, bool) {
	return r.next, r.next <= t
}

// Scratch returns the row to fill for the next Commit, zeroed, with
// one slot per registered metric.
func (r *Registry) Scratch() []units.Seconds {
	if cap(r.scratch) < len(r.names) {
		r.scratch = make([]units.Seconds, len(r.names))
	}
	r.scratch = r.scratch[:len(r.names)]
	for i := range r.scratch {
		r.scratch[i] = 0
	}
	return r.scratch
}

// Commit appends the filled Scratch row as the sample at grid time ts
// and advances the grid.
func (r *Registry) Commit(ts units.Seconds) {
	r.times = append(r.times, ts)
	r.data = append(r.data, r.scratch...)
	r.next += r.interval
}

// Value returns sample row i's value for metric j.
func (r *Registry) Value(i, j int) float64 { return r.data[i*len(r.names)+j] }

// format renders one metric value: counters as integers, gauges with
// three decimals.
func (r *Registry) format(j int, v float64) string {
	if r.kinds[j] == Counter {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// Table renders the sampled series as a structured table: one row per
// grid instant, one column per metric.
func (r *Registry) Table() *results.Table {
	cols := make([]results.Column, 0, len(r.names)+1)
	cols = append(cols, results.CU("Time", "s"))
	for j := range r.names {
		cols = append(cols, results.CU(r.names[j], r.units[j]))
	}
	t := results.NewTable(fmt.Sprintf("Sampled metrics (every %g s)", r.interval), cols...)
	for i := range r.times {
		row := make([]results.Cell, 0, len(cols))
		row = append(row, results.Float("%.2f", r.times[i]))
		for j := range r.names {
			v := r.Value(i, j)
			row = append(row, results.Cell{Text: r.format(j, v), Value: v})
		}
		t.Row(row...)
	}
	return t
}

// WriteCSV emits the series as CSV: a "time" column plus one column
// per metric, counters as integers, gauges with three decimals.
func (r *Registry) WriteCSV(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString("time")
	for _, name := range r.names {
		buf.WriteByte(',')
		buf.WriteString(name)
	}
	buf.WriteByte('\n')
	for i := range r.times {
		buf.Write(strconv.AppendFloat(nil, r.times[i], 'f', 3, 64))
		for j := range r.names {
			buf.WriteByte(',')
			buf.WriteString(r.format(j, r.Value(i, j)))
		}
		buf.WriteByte('\n')
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteJSON emits the series as a compact JSON document:
//
//	{"interval":0.5,
//	 "metrics":[{"name":"queue_depth","kind":"gauge","unit":"req"},...],
//	 "times":[...],"samples":[[...],...]}
//
// samples[i][j] is metric j at times[i].
func (r *Registry) WriteJSON(w io.Writer) error {
	var buf bytes.Buffer
	buf.WriteString("{\"interval\":")
	buf.Write(strconv.AppendFloat(nil, r.interval, 'g', -1, 64))
	buf.WriteString(",\"metrics\":[")
	for j, name := range r.names {
		if j > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "{\"name\":%q,\"kind\":%q,\"unit\":%q}", name, r.kinds[j].String(), r.units[j])
	}
	buf.WriteString("],\"times\":[")
	for i, t := range r.times {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(strconv.AppendFloat(nil, t, 'f', 3, 64))
	}
	buf.WriteString("],\"samples\":[")
	for i := range r.times {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('[')
		for j := range r.names {
			if j > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(r.format(j, r.Value(i, j)))
		}
		buf.WriteByte(']')
	}
	buf.WriteString("]}\n")
	_, err := w.Write(buf.Bytes())
	return err
}
