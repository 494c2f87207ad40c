// moe_routing: the §4.3 co-design — node-limited routing's IB traffic
// deduplication, the group-limit sweep, and its effect on DeepEP
// dispatch time at EP64.
package main

import (
	"fmt"

	"dsv3"
	"dsv3/internal/moe"
)

func main() {
	exp, ok := dsv3.FindExperiment("nodelimit")
	if !ok {
		panic("nodelimit missing from the experiment catalogue")
	}
	out, err := exp.Run(dsv3.RunOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Text())

	// Extension: sweep the group limit from 1 to 8.
	place := moe.Placement{Experts: 256, Nodes: 8, GPUsPerNode: 8}
	fmt.Println("Group-limit sweep (8 nodes, 256 experts, top-8):")
	for _, limit := range []int{1, 2, 3, 4, 6, 8} {
		g := dsv3.V3Gate()
		g.GroupTopK = limit
		if err := g.Validate(); err != nil {
			fmt.Printf("  limit %d: %v\n", limit, err)
			continue
		}
		st := moe.CollectStats(g, place, 3000, 0, nil, dsv3.NewSeededRand(int64(limit)))
		fmt.Printf("  limit %d: E[M]=%.2f  E[remote]=%.2f  max=%d\n",
			limit, st.MeanNodes, st.MeanRemoteNodes, st.MaxNodes)
	}
	fmt.Println()

	// The communication consequence at EP64.
	c, err := dsv3.BuildCluster(dsv3.H800Config(8, dsv3.MPFT))
	if err != nil {
		panic(err)
	}
	cfg := dsv3.DeepEPV3Config()
	cfg.DeterministicTraffic = true
	cfg.SampleTokens = 512
	limited, err := dsv3.DeepEPDispatch(c, cfg, 23)
	if err != nil {
		panic(err)
	}
	cfg.Gate.GroupTopK = 0
	free, err := dsv3.DeepEPDispatch(c, cfg, 23)
	if err != nil {
		panic(err)
	}
	fmt.Printf("EP64 dispatch: node-limited %.2f ms (%.1f MB IB/GPU) vs unrestricted %.2f ms (%.1f MB IB/GPU)\n",
		limited.Time*1e3, limited.WireBytesPerGPU/1e6, free.Time*1e3, free.WireBytesPerGPU/1e6)
	fmt.Printf("IB traffic reduction: %.2fx\n", free.WireBytesPerGPU/limited.WireBytesPerGPU)
}
