package main

import (
	"math"
	"testing"

	"repro/internal/workload"
)

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
