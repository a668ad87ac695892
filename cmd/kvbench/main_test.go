package main

import (
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/workload"
)

// TestNegativeParallelExitsTwo pins that -parallel rejects negative
// worker counts as a malformed command line: exit 2 and an error
// naming the flag, before anything runs.
func TestNegativeParallelExitsTwo(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stderr
	os.Stderr = f
	code := cli.Run("kvbench", []string{"-parallel", "-2"}, run)
	os.Stderr = old
	stderr, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 || !strings.Contains(string(stderr), "flag -parallel: must not be negative") {
		t.Errorf("exit %d, want 2 with an error naming -parallel; stderr:\n%s", code, stderr)
	}
}

// TestParseGridRejectsBadReadFrac pins flag validation: -read-frac 1.5
// once ran an all-read grid silently; it must now fail before any
// tracing, as must a negative or NaN zipf skew.
func TestParseGridRejectsBadReadFrac(t *testing.T) {
	base := workload.Options{Workload: "kv", Shards: 2, Keys: 8, Threads: 2, Inserts: 8, ReadFrac: 0.5, ZipfS: 1.1, Seed: 42}
	if _, err := parseGrid("strict,epoch", base); err != nil {
		t.Fatalf("parseGrid rejected a valid grid: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*workload.Options)
	}{
		{"-read-frac 1.5", func(o *workload.Options) { o.ReadFrac = 1.5 }},
		{"-zipf -1", func(o *workload.Options) { o.ZipfS = -1 }},
		{"-zipf NaN", func(o *workload.Options) { o.ZipfS = math.NaN() }},
	} {
		o := base
		tc.edit(&o)
		if _, err := parseGrid("epoch", o); err == nil {
			t.Errorf("parseGrid accepted %s", tc.name)
		}
	}
}
