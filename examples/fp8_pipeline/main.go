// fp8_pipeline: the low-precision story of §3 — quantized GEMM error
// under the DeepSeek-V3 recipe, the accumulation ablation, LogFMT
// compression accuracy, and the toy training-run validation.
package main

import (
	"fmt"

	"dsv3"
	"dsv3/internal/stats"
)

func main() {
	// GEMM error of the production recipe vs a float64 reference.
	rng := dsv3.NewSeededRand(5)
	a := dsv3.NewMatrix(16, 1024)
	b := dsv3.NewMatrix(1024, 16)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	ref := dsv3.RefGEMM(a, b)
	fp8 := dsv3.FP8GEMM(a, b, dsv3.DeepSeekV3Recipe())
	bf16 := dsv3.BF16GEMM(a, b)
	relFP8, _ := stats.RMSRelativeError(fp8.Data, ref.Data)
	relBF16, _ := stats.RMSRelativeError(bf16.Data, ref.Data)
	fmt.Printf("GEMM (16x1024x16) RMS relative error: FP8 recipe %.2e, BF16 %.2e\n\n", relFP8, relBF16)

	// The catalogue's §3 entries: accumulation ablation, LogFMT, and
	// the toy training run.
	for _, name := range []string{"accum", "logfmt", "fp8"} {
		exp, ok := dsv3.FindExperiment(name)
		if !ok {
			panic(name + " missing from the experiment catalogue")
		}
		out, err := exp.Run(dsv3.RunOptions{})
		if err != nil {
			panic(err)
		}
		fmt.Println(out.Text())
	}
}
