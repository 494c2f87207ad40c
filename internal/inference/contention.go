package inference

import (
	"fmt"

	"dsv3/internal/units"
)

// This file models §4.5 (bandwidth contention) and the §2.3.1 overlap
// analysis:
//
//   - during decode, KV-cache transfers from CPU memory can saturate
//     PCIe at tens of GB/s; when EP traffic shares the same PCIe path
//     to the NIC, the contention inflates communication time and TPOT
//     ("latency spikes"). §4.5.2's suggestion — dynamic traffic
//     prioritization — restores the EP reservation.
//   - dual micro-batch overlap (§2.3.1) hides communication under
//     computation (or vice versa); the ablation here quantifies the
//     gain over serial execution.

// ContentionConfig describes the PCIe sharing scenario of §4.5.1.
type ContentionConfig struct {
	// PCIeBandwidth is the host-link capacity shared by NIC traffic and
	// KV-cache transfers (~64 GB/s for PCIe 5.0 x16).
	PCIeBandwidth units.BytesPerSecond
	// KVTransferRate is the KV-cache fetch demand ("tens of GB/s").
	KVTransferRate units.BytesPerSecond
	// EPDemand is the NIC-bound EP traffic demand (≤ NIC line rate).
	EPDemand units.BytesPerSecond
}

// EffectiveEPBandwidth returns the EP bandwidth under fair sharing
// (prioritized=false: both flows shrink proportionally when the sum
// exceeds PCIe capacity) or with EP traffic prioritized (§4.5.2).
func (c ContentionConfig) EffectiveEPBandwidth(prioritized bool) (units.BytesPerSecond, error) {
	if c.PCIeBandwidth <= 0 || c.EPDemand <= 0 || c.KVTransferRate < 0 {
		return 0, fmt.Errorf("inference: bad contention config %+v", c)
	}
	if prioritized {
		// EP gets its demand first; KV takes the remainder.
		if c.EPDemand > c.PCIeBandwidth {
			return c.PCIeBandwidth, nil
		}
		return c.EPDemand, nil
	}
	total := c.EPDemand + c.KVTransferRate
	if total <= c.PCIeBandwidth {
		return c.EPDemand, nil
	}
	return c.EPDemand / total * c.PCIeBandwidth, nil
}

// TPOTUnderContention recomputes the §2.3.2 TPOT with EP bandwidth
// degraded by PCIe contention.
func (c EPConfig) TPOTUnderContention(nicBW units.BytesPerSecond, cc ContentionConfig, prioritized bool) (Analysis, error) {
	eff, err := cc.EffectiveEPBandwidth(prioritized)
	if err != nil {
		return Analysis{}, err
	}
	if eff > nicBW {
		eff = nicBW
	}
	return c.Analyze(eff)
}

// OverlapAblation quantifies §2.3.1: serial execution exposes
// communication (per layer: compute + 2·comm), dual micro-batch overlap
// pays 2·max(comm, compute) for two micro-batches.
type OverlapAblation struct {
	SerialTPOT    units.Seconds
	OverlapTPOT   units.Seconds
	SpeedupFactor float64
}

// AnalyzeOverlap compares the two execution modes at a given bandwidth
// and per-layer compute time.
func (c EPConfig) AnalyzeOverlap(bw units.BytesPerSecond, computePerLayer units.Seconds) (OverlapAblation, error) {
	if err := c.Validate(); err != nil {
		return OverlapAblation{}, err
	}
	if bw <= 0 || computePerLayer < 0 || !units.Finite(bw) || !units.Finite(computePerLayer) {
		return OverlapAblation{}, fmt.Errorf("inference: bad overlap inputs")
	}
	comm := c.CommTimePerStep(bw)
	layers := float64(c.Layers)
	// Serial: one batch pays its compute and both all-to-alls in
	// sequence; per layer = compute + 2·comm.
	serial := layers * (computePerLayer + 2*comm)
	// Overlapped: the batch splits into two micro-batches (half the
	// compute each); while one computes, the other communicates. Each
	// layer runs two phases of max(comm, compute/2).
	legs := Legs{Layers: 1, Comm: comm, GEMV: computePerLayer / 2}
	overlap := layers * legs.Overlapped()
	return OverlapAblation{
		SerialTPOT:    serial,
		OverlapTPOT:   overlap,
		SpeedupFactor: serial / overlap,
	}, nil
}
