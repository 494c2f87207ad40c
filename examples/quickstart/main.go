// Quickstart: a tour of the dsv3 public API — model analytics,
// numerics, network simulation and the headline experiment runners.
package main

import (
	"fmt"

	"dsv3"
)

func main() {
	// 1. Model analytics: the closed-form results (Tables 1 and 2).
	v3 := dsv3.DeepSeekV3()
	fmt.Printf("DeepSeek-V3: %.1fB total params, %.1fB activated, %.1f KB KV cache/token\n",
		v3.Params().Total/1e9, v3.Params().Active/1e9, v3.KVCacheBytesPerToken(2)/1e3)
	fmt.Printf("Training cost: %.0f GFLOPs/token (causal, seq 4096)\n\n",
		v3.TrainingFLOPsPerToken(4096, true)/1e9)

	// 2. Numerics: quantize a value through the paper's formats.
	x := 0.3333
	fmt.Printf("quantize(%v): E4M3=%v  E5M2=%v  BF16=%v\n",
		x, dsv3.E4M3.Quantize(x), dsv3.E5M2.Quantize(x), dsv3.BF16.Quantize(x))
	codec := dsv3.NewLogFMT(8)
	tile := []float64{0.1, -0.2, 0.4, 0.8}
	fmt.Printf("LogFMT-8 roundtrip of %v: %v\n\n", tile, codec.Roundtrip(tile))

	// 3. Network simulation: a 32-GPU all-to-all on the deployed MPFT.
	c, err := dsv3.BuildCluster(dsv3.H800Config(4, dsv3.MPFT))
	if err != nil {
		panic(err)
	}
	res, err := dsv3.AllToAll(c, 32, 1<<30, dsv3.DefaultCollectiveOpts())
	if err != nil {
		panic(err)
	}
	fmt.Printf("32-GPU all-to-all, 1 GiB/rank: %.2f GB/s algorithm bandwidth\n\n", res.AlgBW/1e9)

	// 4. Experiment catalogue: regenerate a paper table by name.
	exp, ok := dsv3.FindExperiment("table1")
	if !ok {
		panic("table1 missing from the experiment catalogue")
	}
	out, err := exp.Run(dsv3.RunOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(out.Text())
}
