package results

import (
	"encoding/json"
	"io"
	"time"
)

// The JSON document layout. Field order is fixed by the struct
// definitions, so encoding is deterministic — a requirement of the
// golden corpus (testdata/golden) that CI diffs byte-for-byte.
type jsonResult struct {
	Experiment    string      `json:"experiment"`
	Description   string      `json:"description,omitempty"`
	SchemaVersion int         `json:"schema_version"`
	Seed          int64       `json:"seed,omitempty"`
	Quick         bool        `json:"quick"`
	WallMS        float64     `json:"wall_ms,omitempty"`
	Tables        []jsonTable `json:"tables"`
}

type jsonTable struct {
	Title   string       `json:"title"`
	Columns []jsonColumn `json:"columns"`
	Rows    [][]any      `json:"rows"`
}

type jsonColumn struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
}

func toJSON(r *Result) jsonResult {
	out := jsonResult{
		Experiment:    r.Experiment,
		Description:   r.Desc,
		SchemaVersion: SchemaVersion,
		Seed:          r.Meta.Seed,
		Quick:         r.Meta.Quick,
		WallMS:        float64(r.Meta.WallTime) / float64(time.Millisecond),
		Tables:        make([]jsonTable, 0, len(r.Tables)),
	}
	for _, t := range r.Tables {
		jt := jsonTable{
			Title:   t.Title,
			Columns: make([]jsonColumn, 0, len(t.Columns)),
			Rows:    make([][]any, 0, len(t.Rows)),
		}
		for _, c := range t.Columns {
			jt.Columns = append(jt.Columns, jsonColumn{Name: c.Name, Unit: c.Unit})
		}
		for _, row := range t.Rows {
			vals := make([]any, len(row))
			for i, c := range row {
				vals[i] = c.Value
			}
			jt.Rows = append(jt.Rows, vals)
		}
		out.Tables = append(out.Tables, jt)
	}
	return out
}

// EmitJSON writes the result as an indented JSON document ending in a
// newline.
func EmitJSON(w io.Writer, r *Result) error {
	return encodeJSON(w, toJSON(r))
}

// EmitJSONAll writes the results as one indented JSON array.
func EmitJSONAll(w io.Writer, rs []*Result) error {
	docs := make([]jsonResult, 0, len(rs))
	for _, r := range rs {
		docs = append(docs, toJSON(r))
	}
	return encodeJSON(w, docs)
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}
