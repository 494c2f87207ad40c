// kvcache: the memory-efficiency analysis of §2.1 — Table 1 plus the
// serving consequences: how many concurrent long-context requests fit
// in one GPU's HBM under each attention design, and why decode is
// memory-bound for conventional attention (the GEMV problem).
package main

import (
	"fmt"

	"dsv3"
)

func main() {
	exp, ok := dsv3.FindExperiment("table1")
	if !ok {
		panic("table1 missing from the experiment catalogue")
	}
	table1, err := exp.Run(dsv3.RunOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(table1.Text())

	// How many 32k-context conversations fit in 64 GiB of KV budget?
	const ctx = 32768
	const budget = 64 << 30
	fmt.Println("Concurrent 32k-token contexts in a 64 GiB KV budget:")
	for _, cfg := range []*dsv3.ModelConfig{dsv3.DeepSeekV3(), dsv3.Qwen72B(), dsv3.LLaMA405B()} {
		perReq := cfg.KVCacheBytesPerToken(2) * ctx
		fmt.Printf("  %-28s %6.1f GiB/request -> %3.0f requests\n",
			cfg.Name, perReq/(1<<30), budget/perReq)
	}
	fmt.Println()

	// The §2.1.2 roofline story: arithmetic intensity of decode
	// attention vs the H800 ridge point.
	acc := dsv3.H800Accelerator()
	fmt.Printf("H800 ridge intensity: %.0f FLOP/byte\n", acc.PeakFLOPS/acc.MemBandwidth)
	for _, cfg := range []*dsv3.ModelConfig{dsv3.DeepSeekV3(), dsv3.Qwen72B(), dsv3.LLaMA405B()} {
		dc := dsv3.AttentionDecodeCost(cfg, 4096, 2)
		fmt.Printf("  %-28s intensity %6.1f FLOP/byte (memory-bound: %v)\n",
			cfg.Name, dc.Intensity, dc.Intensity < acc.PeakFLOPS/acc.MemBandwidth)
	}
}
