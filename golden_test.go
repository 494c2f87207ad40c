package dsv3

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dsv3/internal/parallel"
)

// The golden corpus under testdata/golden pins the deterministic
// quick-mode output of every experiment in every emitter format.
// TestGoldenCorpus runs each experiment through the public facade on
// an 8-worker pool and diffs its JSON, CSV and text against the
// corpus. internal/experiments' TestGoldenCorpus diffs the serial
// (workers=1) run that its numeric tests share against the same files,
// so `go test ./...` runs the quick catalogue once at each width, and
// both runs equalling the corpus is the serial-vs-parallel check.
// `-run 'TestGoldenCorpus/<name>'` runs that experiment alone.
// Regenerate with scripts/golden.sh after an intentional change.
//
// Set DSV3_SKIP_GOLDEN=1 on architectures whose libm rounding differs
// from the amd64 corpus: a workers=1 run then stands in for the golden
// bytes, so the parallel run is still checked against the serial one.
func TestGoldenCorpus(t *testing.T) {
	skipGolden := os.Getenv("DSV3_SKIP_GOLDEN") != ""
	dir := filepath.Join("testdata", "golden")
	seen := make(map[string]bool)
	for _, e := range Experiments() {
		runAt := func(workers int) func() (*ExperimentResult, error) {
			return sync.OnceValues(func() (*ExperimentResult, error) {
				prev := parallel.SetWorkers(workers)
				defer parallel.SetWorkers(prev)
				return e.Run(RunOptions{Quick: true})
			})
		}
		// The runs happen inside the first file subtest that the -run
		// filter keeps.
		parallelRun, serialRun := runAt(8), runAt(1)
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
				emit := func(run func() (*ExperimentResult, error)) string {
					res, err := run()
					if err != nil {
						t.Fatalf("%s: %v", e.Name, err)
					}
					out, err := em.emit(res)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				ref := filepath.Join(dir, name)
				want, err := os.ReadFile(ref)
				if skipGolden {
					ref, want, err = "the workers=1 run", []byte(emit(serialRun)), nil
				}
				if err != nil {
					t.Fatalf("missing golden file (run scripts/golden.sh): %v", err)
				}
				if got := emit(parallelRun); got != string(want) {
					t.Errorf("workers=8 output drifted from %s (regenerate with scripts/golden.sh):\n%s",
						ref, diffHint(string(want), got))
				}
			})
		}
	}
	// Stale goldens (an experiment was renamed or removed) fail too,
	// and DESIGN.md must quote the corpus size.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !seen[ent.Name()] {
			t.Errorf("stale golden file %s (run scripts/golden.sh)", ent.Name())
		}
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("(%d files)", len(entries)); !strings.Contains(string(doc), want) {
		t.Errorf("DESIGN.md's golden corpus section does not quote %q", want)
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
