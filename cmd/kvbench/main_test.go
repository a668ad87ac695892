package main

import (
	"math"
	"testing"
)

// TestParseGridRejectsBadReadFrac pins flag validation: -read-frac 1.5
// once ran an all-read grid silently; it must now fail before any
// tracing, as must a negative or NaN zipf skew.
func TestParseGridRejectsBadReadFrac(t *testing.T) {
	if _, err := parseGrid("strict,epoch", 2, 8, 2, 8, 1.5, 1.1, 42, false); err == nil {
		t.Error("parseGrid accepted -read-frac 1.5")
	}
	if _, err := parseGrid("epoch", 2, 8, 2, 8, 0.5, -1, 42, false); err == nil {
		t.Error("parseGrid accepted -zipf -1")
	}
	if _, err := parseGrid("epoch", 2, 8, 2, 8, 0.5, math.NaN(), 42, false); err == nil {
		t.Error("parseGrid accepted -zipf NaN")
	}
}
