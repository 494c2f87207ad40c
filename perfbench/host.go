package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dsv3/internal/stats"
)

// setupReps is how many set-up children one run times; setup_s is
// their median.
const setupReps = 21

// childTimeout bounds one child process, so a hung child cannot keep a
// run past its time limit.
const childTimeout = 150 * time.Second

// hostContext records what the numbers were measured on. Numbers from
// hosts with a different core count are not comparable.
func hostContext(o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	src, err := sourceDigest()
	if err != nil {
		src = "unknown: " + err.Error()
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     src,
	}
}

// sourceDigest hashes the checkout's Go sources and module file. A
// benchmark checkout carries no VCS metadata, so this identifies the
// code measured when the commit cannot.
func sourceDigest() (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// runChild runs this binary again with args and returns its stdout, its
// wall time and its peak resident set.
func runChild(args ...string) (out []byte, wall time.Duration, rssMB float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err = cmd.Output()
	wall = time.Since(t0)
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return nil, wall, rssMB, fmt.Errorf("child %v: %w", args, err)
	}
	return out, wall, rssMB, nil
}

// measureLoop calls iterate until o.seconds have passed, at least once,
// and returns setup_s. A set-up child starts this binary — runtime and
// package initialization of every linked dsv3 package — builds the
// workload's inputs and exits: the work a later change could move out
// of the timed iterations. Between iterations measureLoop starts the
// children that are due, so the setupReps of them spread evenly over
// the run and see the same host conditions as the iterations; setup_s
// is their median wall time.
func measureLoop(o options, t *tally, iterate func()) float64 {
	start := time.Now()
	every := time.Duration(o.seconds * float64(time.Second) / setupReps)
	var setup []float64
	spawnDue := func(all bool) {
		for len(setup) < setupReps && (all || time.Since(start) >= time.Duration(len(setup))*every) {
			_, wall, _, err := runChild("-child", "setup", "-workload", o.workload,
				"-seed", strconv.FormatInt(o.seed, 10))
			if !t.check("setup child", err) {
				return
			}
			setup = append(setup, wall.Seconds())
		}
	}
	for n, end := 0, deadline(o); n == 0 || time.Now().Before(end); n++ {
		spawnDue(false)
		iterate()
	}
	spawnDue(true)
	printSamples(map[string][]float64{"setup_s": setup})
	return median(setup)
}

// selfMaxRSSMB is this process's peak resident set in MB.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// allocMB returns the bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// median of xs; 0 for none.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }
