package cluster

import "dsv3/internal/units"

// LatencyParams decomposes the CPU-side end-to-end latency of a small
// (64 B) transfer into structural components. The defaults are
// calibrated so the composed values reproduce Table 5; the point of the
// decomposition is that the *differences* (per-hop cost, host stack) are
// physically meaningful and reusable by the netsim startup-latency path.
type LatencyParams struct {
	// HostOverhead is the sender+receiver software cost (post/poll,
	// completion handling) for the transport.
	HostOverheadIB     units.Seconds
	HostOverheadRoCE   units.Seconds
	HostOverheadNVLink units.Seconds

	// NICLat is the NIC traversal cost, paid once per side.
	NICLatIB   units.Seconds
	NICLatRoCE units.Seconds

	// SwitchHop is the per-switch forwarding cost, including the wire.
	SwitchHopIB   units.Seconds
	SwitchHopRoCE units.Seconds

	// NVLinkHop is the GPU->NVSwitch->GPU per-leg cost.
	NVLinkHop units.Seconds
}

// DefaultLatencyParams returns the calibrated Table 5 decomposition.
func DefaultLatencyParams() LatencyParams {
	return LatencyParams{
		HostOverheadIB:     0.85 * units.Microsecond,
		HostOverheadRoCE:   0.80 * units.Microsecond,
		HostOverheadNVLink: 3.13 * units.Microsecond,
		NICLatIB:           0.75 * units.Microsecond,
		NICLatRoCE:         0.90 * units.Microsecond,
		SwitchHopIB:        0.45 * units.Microsecond,
		SwitchHopRoCE:      1.00 * units.Microsecond,
		NVLinkHop:          0.10 * units.Microsecond,
	}
}

// LinkLayer identifies the transport of a point-to-point latency probe.
type LinkLayer int

const (
	// IB is 400G NDR InfiniBand.
	IB LinkLayer = iota
	// RoCE is 400G RDMA over Converged Ethernet.
	RoCE
	// NVLink is the intra-node fabric.
	NVLink
)

// String implements fmt.Stringer.
func (l LinkLayer) String() string {
	switch l {
	case IB:
		return "InfiniBand"
	case RoCE:
		return "RoCE"
	}
	return "NVLink"
}

// EndToEnd returns the CPU-side end-to-end latency of a 64 B transfer.
// sameLeaf selects the one-switch path; the cross-leaf path traverses
// leaf, spine, leaf (three switches). NVLink ignores sameLeaf.
func (p LatencyParams) EndToEnd(layer LinkLayer, sameLeaf bool) units.Seconds {
	switches := 3.0
	if sameLeaf {
		switches = 1
	}
	switch layer {
	case IB:
		return p.HostOverheadIB + 2*p.NICLatIB + switches*p.SwitchHopIB
	case RoCE:
		return p.HostOverheadRoCE + 2*p.NICLatRoCE + switches*p.SwitchHopRoCE
	default:
		return p.HostOverheadNVLink + 2*p.NVLinkHop
	}
}
