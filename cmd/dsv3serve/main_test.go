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
// own rates.
func TestIgnoredFlagsRejected(t *testing.T) {
	trace := []string{"-trace", "testdata/trace.csv"}
	for _, c := range []struct {
		args []string
		flag string
	}{
		{append(trace, "-rate", "3,4"), "-rate"},
		{append(trace, "-requests", "10"), "-requests"},
		{append(trace, "-prompt", "256"), "-prompt"},
		{append(trace, "-output", "256"), "-output"},
		{append(trace, "-burst", "2,2"), "-burst"},
		{append(trace, "-turns", "3"), "-turns"},
		{append(trace, "-think", "2"), "-think"},
		{[]string{"-find-capacity", "-rate", "4"}, "-rate"},
		{[]string{"-target", "0.5"}, "-target"},
		{[]string{"-metrics-interval", "NaN"}, "-metrics-interval"},
		{[]string{"-stride", "99"}, "-stride"},
		{[]string{"-chunk-tokens", "128"}, "-chunk-tokens"},
		{[]string{"-turns", "1", "-think", "3"}, "-think"},
		{[]string{"-mttr", "5"}, "-mttr"},
		{[]string{"-colocate", "-router", "p2c"}, "-router"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), c.flag+" has no effect") {
			t.Errorf("dsv3serve %s: exit %d, stderr %q; want exit 1 naming %s", strings.Join(c.args, " "), code, stderr.String(), c.flag)
		}
	}
}
