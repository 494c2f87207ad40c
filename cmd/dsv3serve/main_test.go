package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every case of testdata/cases.txt runs in process with -deterministic
// and must reproduce testdata/golden/<name>.golden byte for byte: exit
// status, stdout, stderr and the digest of every file written to {tmp}.
// scripts/golden.sh writes the same records from the built binary;
// regenerate with it after an intentional change.
//
// Set DSV3_SKIP_GOLDEN=1 to skip (e.g. on architectures whose libm
// rounding differs from the amd64 corpus).
func TestGoldenCases(t *testing.T) {
	if os.Getenv("DSV3_SKIP_GOLDEN") != "" {
		t.Skip("DSV3_SKIP_GOLDEN set")
	}
	cases, err := os.ReadFile("testdata/cases.txt")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(cases), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		n++
		name, args := fields[0], fields[1:]
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
			if err != nil {
				t.Fatalf("%v (run scripts/golden.sh)", err)
			}
			tmp := t.TempDir()
			argv := []string{"-deterministic"}
			for _, a := range args {
				argv = append(argv, strings.ReplaceAll(a, "{tmp}", tmp))
			}
			var stdout, stderr bytes.Buffer
			code := run(argv, &stdout, &stderr)
			got := fmt.Sprintf("exit %d\n--- stdout\n%s--- stderr\n%s--- files\n", code, stdout.Bytes(), stderr.Bytes())
			files, err := os.ReadDir(tmp)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				b, err := os.ReadFile(filepath.Join(tmp, f.Name()))
				if err != nil {
					t.Fatal(err)
				}
				got += fmt.Sprintf("%x  %s\n", sha256.Sum256(b), f.Name())
			}
			if got != string(want) {
				t.Errorf("dsv3serve %s drifted from the golden record\n--- got\n%s--- want\n%s", strings.Join(args, " "), got, want)
			}
		})
	}
	if n == 0 {
		t.Fatal("testdata/cases.txt lists no cases")
	}
}

// A flag that the chosen mode ignores exits 1 and names the flag: a
// replay takes its traffic from the trace, a capacity search picks its
// own rates. A positional argument, after which the flag parser would
// drop every flag, exits 2 and names the argument.
func TestIgnoredFlagsRejected(t *testing.T) {
	trace := []string{"-trace", "testdata/trace.csv"}
	for _, c := range []struct {
		args []string
		code int
		want string // in stderr
	}{
		{append(trace, "-rate", "3,4"), 1, "-rate has no effect"},
		{append(trace, "-requests", "10"), 1, "-requests has no effect"},
		{append(trace, "-prompt", "256"), 1, "-prompt has no effect"},
		{append(trace, "-output", "256"), 1, "-output has no effect"},
		{append(trace, "-burst", "2,2"), 1, "-burst has no effect"},
		{append(trace, "-turns", "3"), 1, "-turns has no effect"},
		{append(trace, "-think", "2"), 1, "-think has no effect"},
		{[]string{"-find-capacity", "-rate", "4"}, 1, "-rate has no effect"},
		{[]string{"-target", "0.5"}, 1, "-target has no effect"},
		{[]string{"-metrics-interval", "NaN"}, 1, "-metrics-interval has no effect"},
		{[]string{"-stride", "99"}, 1, "-stride has no effect"},
		{[]string{"-chunk-tokens", "128"}, 1, "-chunk-tokens has no effect"},
		{[]string{"-turns", "1", "-think", "3"}, 1, "-think has no effect"},
		{[]string{"-mttr", "5"}, 1, "-mttr has no effect"},
		{[]string{"-colocate", "-router", "p2c"}, 1, "-router has no effect"},
		{[]string{"extra", "-requests", "20"}, 2, `unexpected argument "extra"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("dsv3serve %s: exit %d, stderr %q; want exit %d with %q", strings.Join(c.args, " "), code, stderr.String(), c.code, c.want)
		}
	}
}
