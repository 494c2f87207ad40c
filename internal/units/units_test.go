package units

import "testing"

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{64, "64B"},
		{128 * MiB, "128MiB"},
		{16 * GiB, "16GiB"},
		{1536, "1.50KiB"},
		{1 * KiB, "1KiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := []struct {
		in   Seconds
		want string
	}{
		{19.926, "19.926s"},
		{14.76e-3, "14.760ms"},
		{120.96e-6, "120.96us"},
		{3.6e-6, "3.60us"},
		{5e-9, "5ns"},
		{0, "0ns"},
		{-1.5e-3, "-1.500ms"},
		{-19.926, "-19.926s"},
		{-120.96e-6, "-120.96us"},
		{-5e-9, "-5ns"},
	}
	for _, c := range cases {
		if got := FormatSeconds(c.in); got != c.want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatBandwidth(t *testing.T) {
	if got := FormatBandwidth(50 * GB); got != "50.00GB/s" {
		t.Errorf("FormatBandwidth = %q", got)
	}
}
