package main

import (
	"testing"

	"repro/internal/cli"
	"repro/internal/golden"
)

// TestGoldenDigests pins pqbench's reports at the CI determinism
// steps' settings: every experiment's text at one and four workers,
// and the table1 and fig2 JSON reports. At a fixed -instr-rate every
// printed number is simulated, so the digests hold on any host.
func TestGoldenDigests(t *testing.T) {
	args := []string{"-inserts", "2000", "-instr-rate", "1e8"}
	pq := func(extra ...string) func() int {
		return func() int { return cli.Run("pqbench", append(extra, args...), run) }
	}
	golden.Check(t, []golden.Case{
		{Name: "all-parallel-1", Run: pq("-experiment", "all", "-parallel", "1")},
		{Name: "all-parallel-4", Run: pq("-experiment", "all", "-parallel", "4")},
		{Name: "table1-json", Run: pq("-experiment", "table1", "-json")},
		{Name: "fig2-json", Run: pq("-experiment", "fig2", "-json")},
	})
}
