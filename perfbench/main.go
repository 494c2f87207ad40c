// Command perfbench is the repository's benchmark. It drives the dsv3
// packages closed-loop — one call at a time from one goroutine, so the
// only concurrency is the program's own worker pool and shards — and
// times each call from outside. Run it from the repository root through
// the wrapper, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 a separate traced run carries the per-layer metrics and
// writes its spans under .bench_build/. See README.md for the workloads
// and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and their failures. An operation fails when
// it returns an error or fails its output check; the benchmark reports
// the failure on stderr and carries on.
type tally struct {
	attempted, failed int
}

func (t *tally) check(op string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op, err)
		return false
	}
	return true
}

// errorRate is failed operations over attempted ones.
func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workload is one benchmark input set: measure gives the end-to-end
// metrics, traced the per-layer ones, and setup builds its inputs (the
// work a set-up child process does). README.md gives each one's reason.
type workload struct {
	measure func(options, *tally) map[string]float64
	traced  func(options, *tally, *spanRecorder, map[string]metric)
	setup   func(seed int64) error
}

var workloads = map[string]workload{
	"fleet":    {measureFleet, tracedFleet, setupFleet},
	"sessions": {measureSessions, tracedSessions, setupSessions},
	"figures":  {measureFigures, tracedFigures, setupFigures},
}

func main() {
	var o options
	var traceFlag int
	child := flag.String("child", "", "internal: run as a child process (setup or figures)")
	flag.StringVar(&o.workload, "workload", "", "workload: fleet, sessions or figures")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (fed to Config.Seed)")
	flag.Float64Var(&o.seconds, "seconds", 20, "host seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1

	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fleet|sessions|figures, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := checkRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	switch *child {
	case "":
	case "setup":
		if err := w.setup(o.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench setup:", err)
			os.Exit(1)
		}
		return
	case "figures":
		figuresChild()
		return
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -child %q\n", *child)
		os.Exit(2)
	}

	host := hostContext(o)
	fmt.Println(mustJSON(map[string]any{"host": host}))

	var t tally
	var metrics map[string]metric
	if o.trace {
		rec := newSpanRecorder()
		metrics = zeroLayerMetrics()
		w.traced(o, &t, rec, metrics)
		set(metrics, "error_rate", t.errorRate())
		path, err := rec.write(o, host)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Println(mustJSON(map[string]any{"spans": path}))
		}
	} else {
		values := w.measure(o, &t)
		values["success_rate"] = 1 - t.errorRate()
		metrics = map[string]metric{}
		for name, v := range values {
			metrics[name] = metric{v, endToEnd[name]}
		}
	}
	fmt.Println(mustJSON(result{
		Correct:   t.failed == 0,
		Attempted: max(t.attempted, 1),
		Failed:    t.failed,
		Metrics:   metrics,
	}))
}

// checkRoot fails unless the working directory is a repository root:
// the benchmark reads the golden corpus from there.
func checkRoot() error {
	for _, p := range []string{"go.mod", goldenDir} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// deadline returns the end of a measurement window of o.seconds.
func deadline(o options) time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value printed here is plain data
	}
	return string(b)
}
