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
	"flag"
	"fmt"
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
	fabric := flag.String("fabric", "mpft", "mpft or mrft")
	gpus := flag.Int("gpus", 32, "GPU count (multiple of 8)")
	sizeStr := flag.String("size", "1GiB", "per-rank buffer (B/KiB/MiB/GiB)")
	flag.Parse()
	// Parsing stops at the first non-flag argument, so every flag
	// after it would be dropped silently.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "netsim: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	var kind cluster.FabricKind
	switch strings.ToLower(*fabric) {
	case "mpft":
		kind = cluster.MPFT
	case "mrft":
		kind = cluster.MRFT
	default:
		fmt.Fprintf(os.Stderr, "unknown -fabric %q (want mpft or mrft)\n", *fabric)
		os.Exit(1)
	}
	size, err := parseSize(*sizeStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c, err := cluster.Build(cluster.H800Config(*gpus/cluster.GPUsPerNode, kind))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := collective.AllToAll(c, *gpus, size, collective.DefaultOptions())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("all-to-all on %s, %d GPUs, %s per rank:\n", kind, *gpus, units.FormatBytes(size))
	fmt.Printf("  time:  %s\n", units.FormatSeconds(res.Time))
	fmt.Printf("  algbw: %s\n", units.FormatBandwidth(res.AlgBW))
}
