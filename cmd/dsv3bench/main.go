// Command dsv3bench regenerates every table and figure of the paper's
// evaluation and emits them with the paper's reference values.
//
// Experiments run concurrently on the deterministic worker pool by
// default; emitted results are byte-identical to a serial run
// (-parallel=false) and always appear in catalogue order. A
// per-experiment wall-time report goes to stderr so stdout stays
// comparable across modes.
//
// Output is structured: every runner produces a results.Result (typed
// columns, units, metadata) and -format selects the emitter. The text
// emitter reproduces the historical fixed-width tables byte for byte;
// json and csv carry the typed values. -out writes one file per
// experiment instead of streaming to stdout — the layout the golden
// corpus under testdata/golden is built from (see scripts/golden.sh).
//
// Usage:
//
//	dsv3bench                          # run everything, in parallel
//	dsv3bench -parallel=false          # serial execution (identical output)
//	dsv3bench -run table3              # run one experiment
//	dsv3bench -list                    # list experiment names
//	dsv3bench -quick                   # smaller sweeps for a fast pass
//	dsv3bench -format json             # JSON array on stdout
//	dsv3bench -format csv -out dir/    # one CSV file per experiment
//	dsv3bench -quick -deterministic -format json -out testdata/golden
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dsv3"
	"dsv3/internal/parallel"
	"dsv3/internal/results"
)

func main() {
	runName := flag.String("run", "", "run a single experiment by name")
	list := flag.Bool("list", false, "list experiments")
	quick := flag.Bool("quick", false, "smaller sweeps")
	par := flag.Bool("parallel", true, "run experiments on the worker pool (output is byte-identical to serial)")
	formatName := flag.String("format", "text", "output format: text, json, or csv")
	outDir := flag.String("out", "", "write one <experiment>.<ext> file per experiment into this directory instead of stdout")
	deterministic := flag.Bool("deterministic", false, "omit volatile metadata (wall time) from emitted results, for golden-corpus comparison")
	flag.Parse()
	// Parsing stops at the first non-flag argument, so every flag
	// after it would be dropped silently.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "dsv3bench: unexpected argument %q (select an experiment with -run)\n", flag.Arg(0))
		os.Exit(2)
	}

	format, err := results.ParseFormat(*formatName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if !*par {
		parallel.SetWorkers(1)
	}

	exps := dsv3.Experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-14s seed=%-3d %s\n", e.Name, e.Seed, e.Desc)
		}
		return
	}
	var selected []dsv3.ExperimentRunner
	for _, e := range exps {
		if *runName == "" || strings.EqualFold(e.Name, *runName) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid experiments:\n", *runName)
		for _, name := range dsv3.ExperimentNames() {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
		os.Exit(1)
	}

	// Fan the experiment list out over the same pool the sweeps use
	// internally; results return in catalogue order regardless of which
	// experiment finishes first.
	start := time.Now()
	opts := dsv3.RunOptions{Quick: *quick}
	res, err := parallel.Map(len(selected), func(i int) (*results.Result, error) {
		t0 := time.Now()
		r, err := selected[i].Run(opts)
		if err != nil {
			return nil, err
		}
		if !*deterministic {
			r.Meta.WallTime = time.Since(t0)
		}
		return r, nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *outDir != "" {
		if err := writeFiles(*outDir, format, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else if err := emit(format, res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "--- wall time (workers=%d) ---\n", parallel.Workers())
	for i, e := range selected {
		fmt.Fprintf(os.Stderr, "%-10s %8.1fms\n", e.Name, float64(res[i].Meta.WallTime.Microseconds())/1e3)
	}
	fmt.Fprintf(os.Stderr, "%-10s %8.1fms\n", "total", float64(time.Since(start).Microseconds())/1e3)
}

// emit streams the selected results to stdout in the chosen format.
// Text output frames each experiment with the historical `=== name —
// desc ===` banner; json emits one array; csv concatenates per-table
// blocks.
func emit(format results.Format, res []*results.Result) error {
	switch format {
	case results.FormatJSON:
		return results.EmitJSONAll(os.Stdout, res)
	case results.FormatCSV:
		return results.EmitCSVAll(os.Stdout, res)
	default:
		for _, r := range res {
			fmt.Printf("=== %s — %s ===\n%s\n", r.Experiment, r.Desc, r.Text())
		}
		return nil
	}
}

// writeFiles writes one <experiment>.<ext> per result into dir.
func writeFiles(dir string, format results.Format, res []*results.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range res {
		var buf bytes.Buffer
		if err := results.Emit(&buf, format, r); err != nil {
			return fmt.Errorf("%s: %w", r.Experiment, err)
		}
		path := filepath.Join(dir, r.Experiment+"."+format.Ext())
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
