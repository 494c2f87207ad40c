// topology_planner: reproduce Table 3 and then use the cost model the
// way an infrastructure team would — sweeping plane counts and switch
// radices to find the cheapest fabric that reaches a target GPU count.
package main

import (
	"fmt"

	"dsv3"
)

func main() {
	exp, ok := dsv3.FindExperiment("table3")
	if !ok {
		panic("table3 missing from the experiment catalogue")
	}
	out, err := exp.Run(dsv3.RunOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Text())

	m := dsv3.DefaultCostModel()
	const target = 10000 // endpoints needed

	fmt.Printf("Cheapest fabric reaching %d endpoints:\n", target)
	best := ""
	bestCost := 0.0
	consider := func(name string, c dsv3.TopologyCounts) {
		if c.Endpoints < target {
			return
		}
		cost := m.Cost(c)
		fmt.Printf("  %-22s %6d endpoints  %7.1f M$  %5.2f k$/EP\n",
			name, c.Endpoints, cost/1e6, m.CostPerEndpoint(c)/1e3)
		if best == "" || cost < bestCost {
			best, bestCost = name, cost
		}
	}
	for _, planes := range []int{2, 4, 8} {
		consider(fmt.Sprintf("MPFT radix64 x%d", planes), dsv3.MPFTCounts(64, planes))
	}
	consider("FT3 radix64", dsv3.FT3Counts(64))
	if sf, err := dsv3.SlimFlyCounts(28); err == nil {
		consider("SlimFly q=28", sf)
	}
	fmt.Printf("-> %s wins at %.1f M$\n", best, bestCost/1e6)
}
