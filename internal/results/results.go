// Package results is the structured carrier for experiment output. A
// runner produces a Result — one or more typed Tables plus metadata
// (seed, quick mode, wall time) — and rendering is split into pluggable
// emitters: the fixed-width text renderer, JSON, and CSV. The
// structured layer is the substrate for CI regression gating
// (testdata/golden), result serving, and what-if sweeps; the text
// layer stays the human-facing view.
package results

import (
	"fmt"
	"io"
	"time"
)

// SchemaVersion identifies the JSON document layout. Bump it whenever
// a field is renamed, removed, or changes meaning; additions are
// backward-compatible and do not require a bump.
const SchemaVersion = 1

// Column describes one typed column of a Table. Name is the exact
// header the text renderer prints; Unit is machine-readable metadata
// ("KB", "GB/s", "s", "%", ...) and is empty for dimensionless or
// string columns.
type Column struct {
	Name string
	Unit string
}

// C builds a dimensionless column.
func C(name string) Column { return Column{Name: name} }

// CU builds a column with a unit annotation.
func CU(name, unit string) Column { return Column{Name: name, Unit: unit} }

// Cell is one table cell: the exact text the fixed-width renderer
// prints, plus the underlying typed value (string, float64, int or
// bool; nil for not-applicable cells) that the JSON and CSV emitters
// serialize.
type Cell struct {
	Text  string
	Value any
}

// Str builds a string cell.
func Str(s string) Cell { return Cell{Text: s, Value: s} }

// Float builds a float cell whose text is Sprintf(format, v). Display
// suffixes in the format ("%.2fx", "%.2f%%") are fine: the text keeps
// them, the value stays numeric.
func Float(format string, v float64) Cell {
	return Cell{Text: fmt.Sprintf(format, v), Value: v}
}

// Int builds an integer cell.
func Int(v int) Cell { return Cell{Text: fmt.Sprint(v), Value: v} }

// Bool builds a boolean cell.
func Bool(v bool) Cell { return Cell{Text: fmt.Sprint(v), Value: v} }

// Val builds a cell whose text is not a plain Sprintf of the value
// (pre-formatted sizes like "128MiB" with the raw byte count behind).
func Val(text string, v any) Cell { return Cell{Text: text, Value: v} }

// NA builds a not-applicable cell: rendered as "-", serialized as null.
func NA() Cell { return Cell{Text: "-", Value: nil} }

// Table is one titled table of typed rows.
type Table struct {
	Title   string
	Columns []Column
	Rows    [][]Cell
}

// NewTable creates a table with the given title and columns.
func NewTable(title string, cols ...Column) *Table {
	return &Table{Title: title, Columns: cols}
}

// Row appends a row of cells.
func (t *Table) Row(cells ...Cell) { t.Rows = append(t.Rows, cells) }

// Meta records how a Result was produced.
type Meta struct {
	// Seed is the base RNG seed for randomized runners, 0 when unused.
	Seed int64
	// Quick reports whether the runner used the reduced -quick sweep.
	Quick bool
	// WallTime is the measured runner wall time. It is volatile: the
	// deterministic emitters (golden corpus) zero it before encoding.
	WallTime time.Duration
}

// Result is the structured output of one experiment runner.
type Result struct {
	// Experiment is the catalogue name ("table1", "figure7", ...).
	Experiment string
	// Desc is the one-line catalogue description.
	Desc   string
	Tables []*Table
	Meta   Meta
}

// New builds a Result over the given tables.
func New(experiment, desc string, tables ...*Table) *Result {
	return &Result{Experiment: experiment, Desc: desc, Tables: tables}
}

// WithSeed records the base seed and returns the result for chaining.
func (r *Result) WithSeed(seed int64) *Result {
	r.Meta.Seed = seed
	return r
}

// Format selects an emitter.
type Format string

const (
	FormatText Format = "text"
	FormatJSON Format = "json"
	FormatCSV  Format = "csv"
)

// ParseFormat validates a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatText, FormatJSON, FormatCSV:
		return Format(s), nil
	}
	return "", fmt.Errorf("results: unknown format %q (valid: text, json, csv)", s)
}

// Ext returns the file extension the format writes under -out.
func (f Format) Ext() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatCSV:
		return "csv"
	default:
		return "txt"
	}
}

// Emit writes r to w in format: fixed-width text, JSON or CSV.
func Emit(w io.Writer, format Format, r *Result) error {
	switch format {
	case FormatJSON:
		return EmitJSON(w, r)
	case FormatCSV:
		return EmitCSV(w, r)
	default:
		_, err := io.WriteString(w, r.Text())
		return err
	}
}
