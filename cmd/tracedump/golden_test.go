package main

import (
	"io"
	"os"
	"testing"

	"repro/internal/golden"
)

// TestGoldenDigests pins tracedump's report for a 50-insert queue run.
func TestGoldenDigests(t *testing.T) {
	golden.Check(t, []golden.Case{
		{Name: "inserts-50", Run: func() int { return run([]string{"-inserts", "50"}, os.Stdout, io.Discard) }},
	})
}
