package main

import (
	"testing"

	"repro/internal/cli"
	"repro/internal/golden"
)

// TestGoldenDigests pins kvbench's report on CI's small grid: the JSON
// report at one and four workers and the text tables. Every number
// kvbench prints is simulated, so the digests hold on any host.
func TestGoldenDigests(t *testing.T) {
	args := []string{"-shards", "8", "-keys", "4096", "-threads", "8", "-ops", "2000"}
	kv := func(extra ...string) func() int {
		return func() int { return cli.Run("kvbench", append(extra, args...), run) }
	}
	golden.Check(t, []golden.Case{
		{Name: "json-parallel-1", Run: kv("-json", "-parallel", "1")},
		{Name: "json-parallel-4", Run: kv("-json", "-parallel", "4")},
		{Name: "text-parallel-1", Run: kv("-parallel", "1")},
	})
}
