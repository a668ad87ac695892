package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cli"
	"repro/internal/golden"
)

// TestGoldenDigests pins kvbench's report on CI's small grid: the JSON
// report at one and four workers and the text tables. Every number
// kvbench prints is simulated, so the digests hold on any host. The
// graph-dump cases pin -graph-dump's edge lines for one policy each,
// copied to stdout after that policy's text table.
func TestGoldenDigests(t *testing.T) {
	args := []string{"-shards", "8", "-keys", "4096", "-threads", "8", "-ops", "2000"}
	kv := func(extra ...string) func() int {
		return func() int { return cli.Run("kvbench", append(extra, args...), run) }
	}
	dump := func(policy string) func() int {
		return func() int {
			path := filepath.Join(t.TempDir(), "graph.txt")
			if code := kv("-policies", policy, "-graph-dump", path)(); code != 0 {
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
		{Name: "json-parallel-1", Run: kv("-json", "-parallel", "1")},
		{Name: "json-parallel-4", Run: kv("-json", "-parallel", "4")},
		{Name: "text-parallel-1", Run: kv("-parallel", "1")},
		{Name: "graph-dump-strict", Run: dump("strict")},
		{Name: "graph-dump-epoch", Run: dump("epoch")},
		{Name: "graph-dump-strand", Run: dump("strand")},
	})
}
