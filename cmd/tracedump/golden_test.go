package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// TestGoldenDigests pins tracedump's report for a 50-insert queue run,
// and the persist-order graph -dot writes for that run under strict,
// epoch and strand persistency: each dot case discards the report,
// which names the output path, and copies the DOT file to stdout.
func TestGoldenDigests(t *testing.T) {
	dot := func(model string) func() int {
		return func() int {
			path := filepath.Join(t.TempDir(), "g.dot")
			if code := run([]string{"-inserts", "50", "-dot", path, "-dot-model", model}, io.Discard, io.Discard); code != 0 {
				return code
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			os.Stdout.Write(b)
			return 0
		}
	}
	golden.Check(t, []golden.Case{
		{Name: "inserts-50", Run: func() int { return run([]string{"-inserts", "50"}, os.Stdout, io.Discard) }},
		{Name: "dot-strict", Run: dot("strict")},
		{Name: "dot-epoch", Run: dot("epoch")},
		{Name: "dot-strand", Run: dot("strand")},
	})
}
