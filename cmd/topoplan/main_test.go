package main

import (
	"bytes"
	"strings"
	"testing"
)

// Inputs no layout can be built from exit 1 with a message naming the
// offending flag and print no table; the smallest valid ones still
// plan every topology with endpoints.
func TestRunValidatesInputs(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string // in stderr when code != 0, in stdout otherwise
	}{
		{[]string{"-planes", "0"}, 1, "-planes 0"},
		{[]string{"-planes", "-3"}, 1, "-planes -3"},
		{[]string{"-radix", "3"}, 1, "-radix 3"},
		{[]string{"-radix", "65"}, 1, "-radix 65"},
		{[]string{"-radix", "2"}, 1, "-radix 2"},
		{[]string{"-radix", "0"}, 1, "-radix 0"},
		{[]string{"-radix", "-64"}, 1, "-radix -64"},
		{[]string{"-endpoint-cost", "-1"}, 1, "-endpoint-cost -1"},
		{[]string{"-switch-cost", "NaN"}, 1, "-switch-cost NaN"},
		{[]string{"-link-cost", "+Inf"}, 1, "-link-cost +Inf"},
		{[]string{"-link-cost", "-Inf"}, 1, "-link-cost -Inf"},
		{[]string{"-sf-q", "2"}, 1, "q=2"},
		{[]string{"-radix", "many"}, 2, "-radix"},
		{[]string{"junk", "-planes", "0"}, 2, `unexpected argument "junk"`},
		{[]string{"-radix", "4", "-planes", "1"}, 0, "DF        6 "},
		{[]string{"-endpoint-cost", "0", "-switch-cost", "0", "-link-cost", "0"}, 0, "MPFT      16384 "},
	} {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
			continue
		}
		out := stdout.String()
		if code != 0 {
			out = stderr.String()
			if stdout.Len() != 0 {
				t.Errorf("%v: printed a table on a rejected input:\n%s", c.args, stdout.String())
			}
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%v: output lacks %q:\n%s", c.args, c.want, out)
		}
	}
}
