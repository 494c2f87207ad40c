package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dsv3/internal/experiments"
	"dsv3/internal/results"
)

// goldenDir holds the deterministic JSON each runner must reproduce.
const goldenDir = "testdata/golden"

// fullSizeRunner has no golden: the corpus is written in quick mode,
// which shrinks only this runner's sweep.
const fullSizeRunner = "figure5"

// figureRunners are the catalogue's non-serving runners, in catalogue
// order.
func figureRunners() []experiments.Runner {
	var rs []experiments.Runner
	for _, r := range experiments.Catalogue() {
		if !strings.HasPrefix(r.Name, "serve") {
			rs = append(rs, r)
		}
	}
	return rs
}

// golden returns the runner's golden JSON as a full-size run emits it.
// The corpus was written with quick set, which changes no other
// runner's tables, so the quick flag is the one expected difference.
func golden(name string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(goldenDir, name+".json"))
	if err != nil {
		return nil, err
	}
	return bytes.Replace(b, []byte(`"quick": true,`), []byte(`"quick": false,`), 1), nil
}

func setupFigures(int64) error {
	for _, r := range figureRunners() {
		if r.Name == fullSizeRunner {
			continue
		}
		if _, err := golden(r.Name); err != nil {
			return err
		}
	}
	return nil
}

// runnerTiming is one runner call in a figures pass, as wall-clock
// Unix nanoseconds so the parent can place it in its own spans.
type runnerTiming struct {
	Name  string `json:"name"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Err   string `json:"err,omitempty"`
}

// figuresPass is what a figures child reports.
type figuresPass struct {
	Runners   []runnerTiming `json:"runners"`
	EmitStart int64          `json:"emit_start"`
	EmitEnd   int64          `json:"emit_end"`
	// WallS covers the runners and the emit, not process start-up.
	WallS   float64 `json:"wall_s"`
	AllocMB float64 `json:"alloc_mb"`
	// FullSize is the digest of figure5's JSON, compared across passes.
	FullSize string `json:"full_size_digest"`
}

// figuresChild runs one cold pass in a fresh process — the package
// caches (deepep plans, cluster paths) start empty, as in a dsv3bench
// process — checks each output and prints the pass as JSON.
func figuresChild() {
	runners := figureRunners()
	var pass figuresPass
	outs := make([]*results.Result, len(runners))
	a0, t0 := allocMB(), time.Now()
	for i, r := range runners {
		rt := runnerTiming{Name: r.Name, Start: time.Now().UnixNano()}
		res, err := r.Run(experiments.Options{})
		rt.End = time.Now().UnixNano()
		if err != nil {
			rt.Err = err.Error()
		}
		outs[i] = res
		pass.Runners = append(pass.Runners, rt)
	}
	pass.EmitStart = time.Now().UnixNano()
	docs := make([]bytes.Buffer, len(runners))
	for i, res := range outs {
		if res == nil {
			continue
		}
		if err := results.EmitJSON(&docs[i], res); err != nil && pass.Runners[i].Err == "" {
			pass.Runners[i].Err = "emit: " + err.Error()
		}
	}
	pass.EmitEnd = time.Now().UnixNano()
	pass.WallS = time.Since(t0).Seconds()
	pass.AllocMB = allocMB() - a0

	for i, r := range runners {
		if pass.Runners[i].Err != "" {
			continue
		}
		if r.Name == fullSizeRunner {
			sum := sha256.Sum256(docs[i].Bytes())
			pass.FullSize = hex.EncodeToString(sum[:])
			continue
		}
		want, err := golden(r.Name)
		if err == nil && !bytes.Equal(docs[i].Bytes(), want) {
			err = fmt.Errorf("output differs from %s/%s.json", goldenDir, r.Name)
		}
		if err != nil {
			pass.Runners[i].Err = err.Error()
		}
	}
	fmt.Println(mustJSON(pass))
}

// runFiguresChild runs one figures pass in a child process and checks
// each runner; fullSize keeps the first pass's figure5 digest.
func runFiguresChild(o options, t *tally, fullSize *string) (figuresPass, float64, bool) {
	var pass figuresPass
	out, _, rss, err := runChild("-child", "figures", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10))
	if err == nil {
		err = json.Unmarshal(out, &pass)
	}
	if !t.check("figures child", err) {
		return pass, rss, false
	}
	for _, r := range pass.Runners {
		var err error
		switch {
		case r.Err != "":
			err = errors.New(r.Err)
		case r.Name == fullSizeRunner && *fullSize != "" && pass.FullSize != *fullSize:
			err = fmt.Errorf("full-size output digest %.12s differs from the first pass's %.12s", pass.FullSize, *fullSize)
		}
		t.check("figures "+r.Name, err)
	}
	if *fullSize == "" {
		*fullSize = pass.FullSize
	}
	return pass, rss, true
}

func measureFigures(o options, t *tally) map[string]float64 {
	var fullSize string
	var walls, rates, allocs, rss []float64
	setup := measureLoop(o, t, func() {
		pass, childRSS, ok := runFiguresChild(o, t, &fullSize)
		if !ok {
			return
		}
		walls = append(walls, pass.WallS)
		rates = append(rates, float64(len(pass.Runners))/pass.WallS)
		allocs = append(allocs, pass.AllocMB)
		rss = append(rss, childRSS)
	})
	printSamples(map[string][]float64{"wall_s": walls, "sim_req_per_s": rates, "alloc_mb": allocs, "max_rss_mb": rss})
	return map[string]float64{
		"wall_s":        median(walls),
		"sim_req_per_s": median(rates),
		"setup_s":       setup,
		"alloc_mb":      median(allocs),
		"max_rss_mb":    median(rss),
	}
}

// tracedFigures alternates passes whose runner calls are recorded as
// spans with passes that are not; every pass is cold and contributes
// runner timings.
func tracedFigures(o options, t *tally, rec *spanRecorder, m map[string]metric) {
	var fullSize string
	perRunner := map[string][]float64{}
	var emitS, plainS, tracedS []float64
	for n, end := 0, deadline(o); n == 0 || time.Now().Before(end); n++ {
		traced := n%2 == 1
		it := -1
		if traced {
			it = rec.begin("iteration", -1)
		}
		pass, _, ok := runFiguresChild(o, t, &fullSize)
		if traced {
			rec.end(it)
		}
		if !ok {
			continue
		}
		for _, r := range pass.Runners {
			perRunner[r.Name] = append(perRunner[r.Name], float64(r.End-r.Start)/1e9)
			if traced {
				rec.add("experiments."+r.Name, it, time.Unix(0, r.Start), time.Unix(0, r.End))
			}
		}
		if traced {
			rec.add("results.EmitJSON", it, time.Unix(0, pass.EmitStart), time.Unix(0, pass.EmitEnd))
			tracedS = append(tracedS, pass.WallS)
		} else {
			plainS = append(plainS, pass.WallS)
		}
		emitS = append(emitS, float64(pass.EmitEnd-pass.EmitStart)/1e9)
	}
	for name, metricName := range runnerMetric {
		set(m, metricName, median(perRunner[name]))
	}
	set(m, "results.emit_s", median(emitS))
	if len(tracedS) > 0 && len(plainS) > 0 {
		set(m, "obs.trace_overhead", median(tracedS)/median(plainS))
	}
}
