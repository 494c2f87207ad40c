package results

import (
	"strings"

	"dsv3/internal/tablefmt"
)

// Text renders the table through the fixed-width tablefmt renderer.
// Cell texts are passed through verbatim, so output is byte-identical
// to the historical per-runner tablefmt rendering.
func (t *Table) Text() string {
	headers := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		headers[i] = c.Name
	}
	tf := tablefmt.New(t.Title, headers...)
	for _, row := range t.Rows {
		cells := make([]any, len(row))
		for i, c := range row {
			cells[i] = c.Text
		}
		tf.AddRow(cells...)
	}
	return tf.String()
}

// Text renders every table of the result, blank-line separated — the
// form dsv3bench prints and the .txt goldens pin.
func (r *Result) Text() string {
	parts := make([]string, len(r.Tables))
	for i, t := range r.Tables {
		parts[i] = t.Text()
	}
	return strings.Join(parts, "\n")
}
