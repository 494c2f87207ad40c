package main

import (
	"bytes"
	"strings"
	"testing"
)

// Inputs no simulation can be run on exit 1 with a message naming the
// offending flag and print no result; a malformed command line exits 2.
func TestRunValidatesInputs(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string // in stderr when code != 0, in stdout otherwise
	}{
		{[]string{"-gpus", "4"}, 1, "-gpus 4: need a positive multiple of 8"},
		{[]string{"-gpus", "12"}, 1, "-gpus 12"},
		{[]string{"-gpus", "0"}, 1, "-gpus 0"},
		{[]string{"-gpus", "-8"}, 1, "-gpus -8"},
		{[]string{"-fabric", "bogus"}, 1, `-fabric "bogus"`},
		{[]string{"-size", "1TiB"}, 1, "-size"},
		{[]string{"-size", "NaN"}, 1, "finite and non-negative"},
		{[]string{"-gpus", "many"}, 2, "-gpus"},
		{[]string{"extra", "-gpus", "16"}, 2, `unexpected argument "extra"`},
		{[]string{"-gpus", "32", "-size", "1GiB"}, 0, "time:  18.288ms"},
		{[]string{"-fabric", "mrft", "-gpus", "8", "-size", "0"}, 0, "all-to-all on MRFT, 8 GPUs, 0B per rank"},
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
				t.Errorf("%v: printed a result on a rejected input:\n%s", c.args, stdout.String())
			}
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%v: output lacks %q:\n%s", c.args, c.want, out)
		}
	}
}
