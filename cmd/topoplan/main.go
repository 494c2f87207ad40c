// Command topoplan explores fabric cost/scale trade-offs with the
// Table 3 cost model: given a switch radix and plane count it prints
// endpoint capacity, switch/link counts and dollar cost for two- and
// three-layer fat-trees, the multi-plane variant, Slim Fly and a
// canonical dragonfly.
//
// Usage:
//
//	topoplan -radix 64 -planes 8
//	topoplan -radix 128 -planes 4 -switch-cost 80000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"dsv3/internal/results"
	"dsv3/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns its exit status: 2 for a
// malformed command line, 1 for an input no layout can be built from
// (reported on stderr).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topoplan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	radix := fs.Int("radix", 64, "switch port count (even, at least 4)")
	planes := fs.Int("planes", 8, "multi-plane plane count (at least 1)")
	sfq := fs.Int("sf-q", 28, "Slim Fly MMS parameter q")
	epCost := fs.Float64("endpoint-cost", 514, "$ per endpoint (NIC + cable share)")
	swCost := fs.Float64("switch-cost", 50000, "$ per switch")
	linkCost := fs.Float64("link-cost", 1536, "$ per inter-switch optical link")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Parsing stops at the first non-flag argument, so every flag
	// after it would be dropped silently.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "topoplan: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// A fat-tree switch splits its ports evenly between the layers
	// below and above it, and the dragonfly gives radix/4 ports each to
	// endpoints and global links: an odd radix or one below 4 leaves a
	// layout without endpoints or with a fractional half.
	if *radix < 4 || *radix%2 != 0 {
		return fail(fmt.Errorf("topoplan: -radix %d: need an even port count of at least 4", *radix))
	}
	if *planes < 1 {
		return fail(fmt.Errorf("topoplan: -planes %d: need at least 1 plane", *planes))
	}
	for _, c := range []struct {
		flag string
		v    float64
	}{{"endpoint-cost", *epCost}, {"switch-cost", *swCost}, {"link-cost", *linkCost}} {
		if c.v < 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fail(fmt.Errorf("topoplan: -%s %v: need a finite non-negative cost", c.flag, c.v))
		}
	}

	model := topology.CostModel{EndpointCost: *epCost, SwitchCost: *swCost, LinkCost: *linkCost}
	sf, err := topology.SlimFlyCounts(*sfq)
	if err != nil {
		return fail(err)
	}
	rows := []topology.Counts{
		topology.FT2Counts(*radix),
		topology.MPFTCounts(*radix, *planes),
		topology.FT3Counts(*radix),
		sf,
		topology.DragonflyCounts(*radix/4, *radix/2, *radix/4, *radix/2**radix/4+1),
	}
	t := results.NewTable(fmt.Sprintf("Topology plan (radix %d, %d planes)", *radix, *planes),
		results.C("Topology"), results.C("Endpoints"), results.C("Switches"), results.C("Links"),
		results.C("Cost [M$]"), results.C("Cost/EP [k$]"))
	for _, c := range rows {
		t.Row(results.Str(c.Name), results.Int(c.Endpoints), results.Int(c.Switches), results.Int(c.InterSwitchLinks),
			results.Float("%.1f", model.Cost(c)/1e6),
			results.Float("%.2f", model.CostPerEndpoint(c)/1e3))
	}
	fmt.Fprint(stdout, t.Text())
	return 0
}
