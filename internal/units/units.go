// Package units provides the physical quantities used throughout the
// simulator: byte sizes, bandwidths and durations, together with the
// formatting helpers the experiment tables rely on.
//
// Simulated time is carried as float64 seconds everywhere inside the
// simulator; this package owns the conversions at the edges.
package units

import (
	"fmt"
	"math"
)

// Common byte sizes.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30

	KB = 1e3
	MB = 1e6
	GB = 1e9
)

// Common time scales, expressed in seconds.
const (
	Second      = 1.0
	Millisecond = 1e-3
	Microsecond = 1e-6
	Nanosecond  = 1e-9
)

// Bytes is a data size in bytes. Sizes in the simulator can be fractional
// (e.g. average per-token traffic), so float64 is used rather than an
// integer type.
type Bytes = float64

// BytesPerSecond is a bandwidth. The paper (and this repo) always quotes
// decimal GB/s for link rates: a 400 Gbps NIC is 50 GB/s.
type BytesPerSecond = float64

// Seconds is a duration in seconds.
type Seconds = float64

// Finite reports whether x is neither NaN nor infinite. Every ordered
// comparison with NaN is false, so a sign check alone lets NaN through.
func Finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// FormatBytes renders a size with a binary-prefix unit, matching the axis
// labels used in the paper's figures (128MiB, 1GiB, ...).
func FormatBytes(b Bytes) string {
	switch {
	case b >= GiB:
		return trimUnit(b/GiB, "GiB")
	case b >= MiB:
		return trimUnit(b/MiB, "MiB")
	case b >= KiB:
		return trimUnit(b/KiB, "KiB")
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// FormatSeconds renders a duration using the most natural unit.
// Negative durations format as |s| with a sign prefix (a bare negative
// would fall through every unit threshold to the ns branch).
func FormatSeconds(s Seconds) string {
	if s < 0 {
		return "-" + FormatSeconds(-s)
	}
	switch {
	case s >= 1:
		return fmt.Sprintf("%.3fs", s)
	case s >= Millisecond:
		return fmt.Sprintf("%.3fms", s/Millisecond)
	case s >= Microsecond:
		return fmt.Sprintf("%.2fus", s/Microsecond)
	default:
		return fmt.Sprintf("%.0fns", s/Nanosecond)
	}
}

// FormatBandwidth renders a bandwidth in GB/s, the unit used by every
// figure in the paper.
func FormatBandwidth(bw BytesPerSecond) string {
	return fmt.Sprintf("%.2fGB/s", bw/GB)
}

func trimUnit(v float64, unit string) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%.0f%s", v, unit)
	}
	return fmt.Sprintf("%.2f%s", v, unit)
}
