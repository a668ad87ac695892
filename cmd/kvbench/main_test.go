package main

import (
	"math"
	"testing"
)

// TestRunChecksExitContract pins -check's exit codes to the
// persistcheck CLI contract: 0 when the grid is clean, 2 when any
// policy has witness hazards. The racing discipline drops the
// journal's inner barrier, which the epoch-race detector flags on a
// write-heavy mix, so it is the seeded-hazard fixture here.
func TestRunChecksExitContract(t *testing.T) {
	clean, err := parseGrid("strict,epoch,strand", 2, 8, 2, 8, 0.5, 1.1, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := runChecks(clean, false, 0, 1, nil); got != 0 {
		t.Errorf("clean grid exited %d, want 0", got)
	}
	racing, err := parseGrid("racing", 2, 8, 2, 8, 0.5, 1.1, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := runChecks(racing, false, 0, 1, nil); got != 2 {
		t.Errorf("racing grid exited %d, want 2", got)
	}
}

// TestRunChecksExhaustive pins the -exhaustive path: the clean grid's
// every reachable crash state classifies as recovered, so the verdict
// stays 0 with the bounded model checker on.
func TestRunChecksExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration in -short mode")
	}
	// read-frac 0.75 keeps the strand-model crash-state space inside
	// the default budget (46 persists, ~10k reduced states from ~36M
	// cuts); at 0.5 the 67-persist trace exceeds 4M states.
	grid, err := parseGrid("strict,epoch,strand", 2, 8, 2, 8, 0.75, 1.1, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := runChecks(grid, true, 0, 0, nil); got != 0 {
		t.Errorf("clean grid with -exhaustive exited %d, want 0", got)
	}
}

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
