// Command netsim runs ad-hoc collective simulations on the H800
// cluster model: choose a fabric, GPU count, message size and
// collective, and get the simulated time and bandwidth.
//
// Usage:
//
//	netsim -fabric mpft -gpus 32 -size 1GiB
//	netsim -fabric mrft -gpus 128 -size 512MiB
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dsv3/internal/cluster"
	"dsv3/internal/collective"
	"dsv3/internal/units"
)

func parseSize(s string) (units.Bytes, error) {
	var v float64
	var unit string
	if _, err := fmt.Sscanf(s, "%f%s", &v, &unit); err != nil {
		if _, err2 := fmt.Sscanf(s, "%f", &v); err2 != nil {
			return 0, fmt.Errorf("cannot parse size %q", s)
		}
		return v, nil
	}
	switch strings.ToLower(unit) {
	case "b", "":
		return v, nil
	case "kib":
		return v * units.KiB, nil
	case "mib":
		return v * units.MiB, nil
	case "gib":
		return v * units.GiB, nil
	}
	return 0, fmt.Errorf("unknown unit %q", unit)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns its exit status: 2 for a
// malformed command line, 1 for an input no simulation can be run on
// (reported on stderr, naming the flag).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fabric := fs.String("fabric", "mpft", "mpft or mrft")
	gpus := fs.Int("gpus", 32, "GPU count (positive multiple of 8)")
	sizeStr := fs.String("size", "1GiB", "per-rank buffer (B/KiB/MiB/GiB)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Parsing stops at the first non-flag argument, so every flag
	// after it would be dropped silently.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "netsim: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	var kind cluster.FabricKind
	switch strings.ToLower(*fabric) {
	case "mpft":
		kind = cluster.MPFT
	case "mrft":
		kind = cluster.MRFT
	default:
		return fail(fmt.Errorf("netsim: unknown -fabric %q (want mpft or mrft)", *fabric))
	}
	// The cluster is built from whole 8-GPU nodes.
	if *gpus <= 0 || *gpus%cluster.GPUsPerNode != 0 {
		return fail(fmt.Errorf("netsim: -gpus %d: need a positive multiple of %d", *gpus, cluster.GPUsPerNode))
	}
	size, err := parseSize(*sizeStr)
	if err != nil {
		return fail(fmt.Errorf("netsim: -size: %w", err))
	}
	c, err := cluster.Build(cluster.H800Config(*gpus/cluster.GPUsPerNode, kind))
	if err != nil {
		return fail(err)
	}
	res, err := collective.AllToAll(c, *gpus, size, collective.DefaultOptions())
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "all-to-all on %s, %d GPUs, %s per rank:\n", kind, *gpus, units.FormatBytes(size))
	fmt.Fprintf(stdout, "  time:  %s\n", units.FormatSeconds(res.Time))
	fmt.Fprintf(stdout, "  algbw: %s\n", units.FormatBandwidth(res.AlgBW))
	return 0
}
