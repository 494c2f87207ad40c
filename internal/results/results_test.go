package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// DecodeJSON parses a document written by EmitJSON back into a Result.
// Cell texts are not part of the JSON schema, so decoded cells carry
// values only — re-encoding a decoded result reproduces the input
// bytes (the round-trip property the emitter tests assert).
func DecodeJSON(r io.Reader) (*Result, error) {
	var doc jsonResult
	dec := json.NewDecoder(r)
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("results: decode: %w", err)
	}
	if doc.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("results: schema version %d, want %d", doc.SchemaVersion, SchemaVersion)
	}
	out := &Result{
		Experiment: doc.Experiment,
		Desc:       doc.Description,
		Meta: Meta{
			Seed:     doc.Seed,
			Quick:    doc.Quick,
			WallTime: time.Duration(math.Round(doc.WallMS * float64(time.Millisecond))),
		},
	}
	for _, jt := range doc.Tables {
		t := NewTable(jt.Title)
		for _, c := range jt.Columns {
			t.Columns = append(t.Columns, Column{Name: c.Name, Unit: c.Unit})
		}
		for _, row := range jt.Rows {
			cells := make([]Cell, len(row))
			for i, v := range row {
				cells[i] = Cell{Value: normalizeJSONValue(v)}
			}
			t.Rows = append(t.Rows, cells)
		}
		out.Tables = append(out.Tables, t)
	}
	return out, nil
}

// normalizeJSONValue maps decoded JSON values onto the cell value
// types the builders produce: json.Number becomes int when the text
// has no fraction or exponent, float64 otherwise.
func normalizeJSONValue(v any) any {
	n, ok := v.(json.Number)
	if !ok {
		return v
	}
	if !bytes.ContainsAny([]byte(n.String()), ".eE") {
		if i, err := n.Int64(); err == nil {
			return int(i)
		}
	}
	f, err := n.Float64()
	if err != nil {
		return n.String()
	}
	return f
}

func sampleResult() *Result {
	t := NewTable("Sample: speeds",
		C("Name"), CU("BW", "GB/s"), C("Count"), C("OK"), C("Note"))
	t.Row(Str("alpha"), Float("%.2f", 41.237), Int(3), Bool(true), NA())
	t.Row(Str("beta,quoted"), Float("%.1fx", 2.5), Int(-1), Bool(false), Val("1KiB", 1024.0))
	r := New("sample", "emitter test fixture", t).WithSeed(42)
	r.Meta.Quick = true
	return r
}

func TestTextMatchesCellText(t *testing.T) {
	out := sampleResult().Text()
	for _, want := range []string{"Sample: speeds", "41.24", "2.5x", "alpha", "1KiB", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Units are metadata, not display: the text header is the bare name.
	if strings.Contains(out, "GB/s]") {
		t.Errorf("text output leaked unit annotations:\n%s", out)
	}
}

// strTable builds a table of string cells for the layout tests.
func strTable(title string, cols []string, rows ...[]string) *Table {
	t := NewTable(title)
	for _, c := range cols {
		t.Columns = append(t.Columns, C(c))
	}
	for _, r := range rows {
		cells := make([]Cell, len(r))
		for i, s := range r {
			cells[i] = Str(s)
		}
		t.Row(cells...)
	}
	return t
}

func lines(s string) []string { return strings.Split(strings.TrimRight(s, "\n"), "\n") }

func TestRenderBasic(t *testing.T) {
	tb := NewTable("Table X", C("Model"), C("Value"))
	tb.Row(Str("DeepSeek-V3"), Float("%.3f", 70.272))
	tb.Row(Str("Qwen-2.5 72B"), Float("%.2f", 327.68))
	out := tb.Text()
	if !strings.HasPrefix(out, "Table X\n") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "DeepSeek-V3") || !strings.Contains(out, "70.272") {
		t.Errorf("missing cells: %q", out)
	}
	ls := lines(out)
	if len(ls) != 5 { // title, header, rule, 2 rows
		t.Errorf("expected 5 lines, got %d: %q", len(ls), out)
	}
	// All data rows align: each column starts at the same offset.
	if strings.Index(ls[3], "70.272") != strings.Index(ls[4], "327.68") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestNoTitleNoHeaders(t *testing.T) {
	out := strTable("", nil, []string{"a", "b"}).Text()
	if strings.Contains(out, "-") {
		t.Errorf("rule should not render without headers: %q", out)
	}
	if !strings.HasPrefix(out, "a") {
		t.Errorf("unexpected prefix: %q", out)
	}
}

func TestRaggedRows(t *testing.T) {
	out := strTable("", []string{"A", "B"}, []string{"x"}, []string{"y", "z", "extra"}).Text()
	if !strings.Contains(out, "extra") {
		t.Errorf("wide rows must render all cells: %q", out)
	}
}

func TestRuleMatchesWidestRow(t *testing.T) {
	out := strTable("", []string{"A", "B"}, []string{"wide-cell-value", "x"}).Text()
	ls := lines(out)
	// header, rule, row
	if len(ls) != 3 {
		t.Fatalf("expected 3 lines, got %d: %q", len(ls), out)
	}
	rule, row := ls[1], ls[2]
	if len(rule) != len(row) {
		t.Errorf("rule width %d != row width %d:\n%s", len(rule), len(row), out)
	}
	if strings.Trim(rule, "-") != "" {
		t.Errorf("rule contains non-dash characters: %q", rule)
	}
}

func TestHeaderWiderThanCells(t *testing.T) {
	out := strTable("", []string{"a-very-long-header", "h2"}, []string{"x", "y"}, []string{"zz", "w"}).Text()
	ls := lines(out)
	// Column 2 starts at the same offset in every line, padded to the
	// header width.
	want := strings.Index(ls[0], "h2")
	if strings.Index(ls[2], "y") != want || strings.Index(ls[3], "w") != want {
		t.Errorf("second column misaligned under wide header:\n%s", out)
	}
}

func TestShortRowPadsMissingCells(t *testing.T) {
	out := strTable("", []string{"A", "B", "C"}, []string{"x"}, []string{"y", "mid", "z"}).Text()
	ls := lines(out)
	if strings.Index(ls[3], "z") <= strings.Index(ls[3], "mid") {
		t.Fatalf("sanity: %q", ls[3])
	}
	// The short row renders only padding where cells are missing.
	if got := strings.TrimRight(ls[2], " "); got != "x" {
		t.Errorf("short row = %q, want bare first cell", got)
	}
}

func TestEmptyTable(t *testing.T) {
	if out := NewTable("").Text(); out != "" {
		t.Errorf("empty table rendered %q", out)
	}
	if out := NewTable("T").Text(); out != "T\n" {
		t.Errorf("title-only table rendered %q", out)
	}
	// Headers with no rows still render the header and rule.
	out := strTable("", []string{"A", "B"}).Text()
	if ls := lines(out); len(ls) != 2 {
		t.Errorf("header-only table rendered %q", out)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := sampleResult()
	var first bytes.Buffer
	if err := EmitJSON(&first, r); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := EmitJSON(&second, dec); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 || first.String() != second.String() {
		t.Errorf("encode/decode/encode not a fixed point:\n--- first ---\n%s--- second ---\n%s", first.String(), second.String())
	}
}

func TestJSONRoundTripPreservesTypesAndMeta(t *testing.T) {
	r := sampleResult()
	// Not an integral number of milliseconds: the decode must round,
	// not truncate, to land back on the original duration.
	r.Meta.WallTime = 1234567 * time.Nanosecond
	var buf bytes.Buffer
	if err := EmitJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Experiment != "sample" || dec.Desc != "emitter test fixture" {
		t.Errorf("identity lost: %+v", dec)
	}
	if dec.Meta.Seed != 42 || !dec.Meta.Quick || dec.Meta.WallTime != 1234567*time.Nanosecond {
		t.Errorf("meta lost: %+v", dec.Meta)
	}
	row := dec.Tables[0].Rows[0]
	if _, ok := row[0].Value.(string); !ok {
		t.Errorf("string cell decoded as %T", row[0].Value)
	}
	if v, ok := row[1].Value.(float64); !ok || v != 41.237 {
		t.Errorf("float cell decoded as %T %v", row[1].Value, row[1].Value)
	}
	if v, ok := row[2].Value.(int); !ok || v != 3 {
		t.Errorf("int cell decoded as %T %v", row[2].Value, row[2].Value)
	}
	if v, ok := row[3].Value.(bool); !ok || !v {
		t.Errorf("bool cell decoded as %T %v", row[3].Value, row[3].Value)
	}
	if row[4].Value != nil {
		t.Errorf("NA cell decoded as %T %v", row[4].Value, row[4].Value)
	}
}

// Column names and units are API surface consumed by downstream
// tooling; they must survive the round trip exactly.
func TestJSONColumnAndUnitStability(t *testing.T) {
	r := sampleResult()
	var buf bytes.Buffer
	if err := EmitJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Tables[0].Columns
	got := dec.Tables[0].Columns
	if len(got) != len(want) {
		t.Fatalf("column count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("column %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJSONOmitsVolatileWallTimeWhenZero(t *testing.T) {
	var buf bytes.Buffer
	if err := EmitJSON(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "wall_ms") {
		t.Errorf("zero wall time must not be emitted (golden determinism):\n%s", buf.String())
	}
}

func TestJSONRejectsUnknownSchemaVersion(t *testing.T) {
	doc := strings.Replace(`{"experiment":"x","schema_version":1,"quick":false,"tables":[]}`,
		`"schema_version":1`, `"schema_version":99`, 1)
	if _, err := DecodeJSON(strings.NewReader(doc)); err == nil {
		t.Error("expected schema version error")
	}
}

func TestCSVEmitter(t *testing.T) {
	var buf bytes.Buffer
	if err := EmitCSV(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "# experiment: sample" {
		t.Errorf("missing experiment comment: %q", lines[0])
	}
	if lines[2] != "Name,BW [GB/s],Count,OK,Note" {
		t.Errorf("header = %q", lines[2])
	}
	// Values are canonical, not display text: 41.237 not "41.24",
	// comma-bearing strings quoted, NA empty.
	if lines[3] != "alpha,41.237,3,true," {
		t.Errorf("row 1 = %q", lines[3])
	}
	if lines[4] != `"beta,quoted",2.5,-1,false,1024` {
		t.Errorf("row 2 = %q", lines[4])
	}
}

func TestCSVMultiTableAndAll(t *testing.T) {
	r := sampleResult()
	second := NewTable("Second table", C("k"), C("v"))
	second.Row(Str("x"), Int(1))
	r.Tables = append(r.Tables, second)
	var buf bytes.Buffer
	if err := EmitCSVAll(&buf, []*Result{r, sampleResult()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# experiment: sample") != 3 {
		t.Errorf("expected 3 table blocks:\n%s", out)
	}
	if !strings.Contains(out, "\n\n# experiment") && !strings.Contains(out, "\n\n# table") {
		t.Errorf("blocks must be blank-line separated:\n%s", out)
	}
}

func TestEmitJSONAllIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := EmitJSONAll(&buf, []*Result{sampleResult(), sampleResult()}); err != nil {
		t.Fatal(err)
	}
	s := strings.TrimSpace(buf.String())
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		t.Errorf("expected JSON array, got:\n%s", s)
	}
}

func TestParseFormat(t *testing.T) {
	for _, ok := range []string{"text", "json", "csv"} {
		if _, err := ParseFormat(ok); err != nil {
			t.Errorf("ParseFormat(%q): %v", ok, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("ParseFormat(yaml) should fail")
	}
	if FormatJSON.Ext() != "json" || FormatCSV.Ext() != "csv" || FormatText.Ext() != "txt" {
		t.Error("Ext() mapping wrong")
	}
}
