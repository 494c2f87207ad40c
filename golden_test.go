package dsv3

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The golden corpus under testdata/golden pins the deterministic
// quick-mode output of every experiment in every emitter format. This
// is the same gate CI applies through scripts/golden.sh -check, run
// in-process so plain `go test ./...` catches regressions in either
// the numbers or the emitters. Regenerate with scripts/golden.sh after
// an intentional change.
//
// Set DSV3_SKIP_GOLDEN=1 to skip (e.g. on architectures whose libm
// rounding differs from the amd64 corpus).
func TestGoldenCorpus(t *testing.T) {
	if os.Getenv("DSV3_SKIP_GOLDEN") != "" {
		t.Skip("DSV3_SKIP_GOLDEN set")
	}
	seen := make(map[string]bool)
	for _, e := range Experiments() {
		// The experiment runs inside the first of its file subtests that
		// the -run filter keeps, so `-run 'TestGoldenCorpus/<name>'`
		// runs that experiment alone.
		run := sync.OnceValues(func() (*ExperimentResult, error) { return e.Run(RunOptions{Quick: true}) })
		emitters := []struct {
			ext  string
			emit func(*ExperimentResult) (string, error)
		}{
			{"json", func(r *ExperimentResult) (string, error) {
				var b bytes.Buffer
				err := EmitJSON(&b, r)
				return b.String(), err
			}},
			{"csv", func(r *ExperimentResult) (string, error) {
				var b bytes.Buffer
				err := EmitCSV(&b, r)
				return b.String(), err
			}},
			{"txt", func(r *ExperimentResult) (string, error) { return r.Text(), nil }},
		}
		for _, em := range emitters {
			name := e.Name + "." + em.ext
			seen[name] = true
			t.Run(name, func(t *testing.T) {
				res, err := run()
				if err != nil {
					t.Fatalf("%s: %v", e.Name, err)
				}
				got, err := em.emit(res)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", "golden", name)
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run scripts/golden.sh): %v", err)
				}
				if got != string(want) {
					t.Errorf("drift vs %s (regenerate with scripts/golden.sh):\n%s", path, diffHint(string(want), got))
				}
			})
		}
	}
	// Stale goldens (an experiment was renamed or removed) fail too.
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !seen[ent.Name()] {
			t.Errorf("stale golden file %s (run scripts/golden.sh)", ent.Name())
		}
	}
}

// diffHint shows the first diverging line, keeping failure output
// readable for large documents.
func diffHint(want, got string) string {
	wl := bytes.Split([]byte(want), []byte("\n"))
	gl := bytes.Split([]byte(got), []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(wl), len(gl))
}
