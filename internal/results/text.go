package results

import "strings"

// Text renders the table as fixed-width text: the title line, the
// column names, a dash rule as wide as the widest row, then one line
// per row. Each column is padded to its widest cell; cell texts are
// printed verbatim. A row shorter than the header pads the missing
// cells and a longer one widens the table.
func (t *Table) Text() string {
	head := make([]Cell, len(t.Columns))
	for i, c := range t.Columns {
		head[i] = Str(c.Name)
	}
	rows := append([][]Cell{head}, t.Rows...)
	width := 0
	for _, r := range rows {
		width = max(width, len(r))
	}
	colw := make([]int, width)
	for _, r := range rows {
		for i, c := range r {
			colw[i] = max(colw[i], len(c.Text))
		}
	}

	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(r []Cell) {
		for i, w := range colw {
			if i > 0 {
				b.WriteString("  ")
			}
			s := ""
			if i < len(r) {
				s = r[i].Text
			}
			b.WriteString(s)
			b.WriteString(strings.Repeat(" ", w-len(s)))
		}
		b.WriteByte('\n')
	}
	if len(head) > 0 {
		writeRow(head)
		rule := 2 * (width - 1)
		for _, w := range colw {
			rule += w
		}
		b.WriteString(strings.Repeat("-", rule))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
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
