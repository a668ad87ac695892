package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/golden"
)

// TestGoldenDigests pins persistcheck's report and exit code for the CI
// gates' invocations: the clean witness-pair loops, the exhaustive
// clean matrix and its two hazardous runs, the two racing witness-pair
// runs whose repro lines crashsim replays, and three runs whose insert
// count the thread count does not divide. Every exhaustive and
// hazardous run is pinned a second time at -parallel 4, where
// enumeration and classification fan out over sweep workers that each
// hold their own scratch state.
func TestGoldenDigests(t *testing.T) {
	var cases []golden.Case
	var exhaustive [][2]string // name, args
	add := func(name, args string) {
		cases = append(cases, golden.Case{Name: name, Run: func() int {
			return cli.Run("persistcheck", strings.Fields(args), run)
		}})
		if strings.HasPrefix(name, "exhaustive-") || strings.HasPrefix(name, "hazardous-") {
			exhaustive = append(exhaustive, [2]string{name, args})
		}
	}
	for _, wl := range []string{"journal", "pstm"} {
		for _, pol := range []string{"strict", "epoch", "strand"} {
			add("clean-"+wl+"-"+pol, fmt.Sprintf("-workload %s -policy %s -threads 3 -inserts 12", wl, pol))
		}
	}
	for _, design := range []string{"cwl", "2lc"} {
		for _, pol := range []string{"strict", "epoch", "strand"} {
			add("clean-queue-"+design+"-"+pol, fmt.Sprintf("-workload queue -design %s -policy %s -threads 3 -inserts 12", design, pol))
		}
	}
	for _, design := range []string{"cwl", "2lc"} {
		for _, pol := range []string{"strict", "epoch", "strand"} {
			for _, th := range []int{1, 3} {
				add(fmt.Sprintf("bench-queue-%s-%s-%dT", design, pol, th),
					fmt.Sprintf("-workload queue -design %s -policy %s -threads %d -inserts %d -payload 100 -seed 42", design, pol, th, 64*th))
			}
		}
	}
	for _, pol := range []string{"strict", "epoch"} {
		add("exhaustive-queue-"+pol, "-workload queue -policy "+pol+" -threads 2 -inserts 6 -payload 16 -exhaustive")
		add("exhaustive-journal-"+pol, "-workload journal -policy "+pol+" -threads 2 -inserts 4 -sparse-blocks -exhaustive")
	}
	for _, pol := range []string{"strict", "epoch", "strand"} {
		add("exhaustive-pstm-"+pol, "-workload pstm -policy "+pol+" -threads 2 -inserts 6 -exhaustive")
	}
	add("exhaustive-queue-strand", "-workload queue -policy strand -threads 2 -inserts 2 -payload 8 -exhaustive")
	add("exhaustive-journal-strand", "-workload journal -policy strand -threads 2 -inserts 2 -sparse-blocks -exhaustive -state-budget 2097152")
	for _, pol := range []string{"strict", "epoch", "strand"} {
		add("exhaustive-kv-"+pol, "-workload kv -policy "+pol+" -shards 2 -keys 8 -threads 2 -inserts 8 -read-frac 0.75 -seed 42 -exhaustive")
	}
	add("hazardous-journal-break-commit", "-workload journal -policy epoch -threads 2 -inserts 4 -sparse-blocks -break-commit -exhaustive")
	add("hazardous-pstm-racing", "-workload pstm -policy racing -threads 2 -inserts 6 -exhaustive")
	add("racing-kv", "-workload kv -policy racing -shards 2 -keys 8 -threads 2 -inserts 8 -read-frac 0.5 -seed 42")
	add("racing-queue-2lc", "-workload queue -design 2lc -policy racing -threads 2 -inserts 8")
	add("remainder-queue", "-workload queue -threads 3 -inserts 13")
	add("remainder-journal", "-workload journal -threads 3 -inserts 13 -sparse-blocks")
	add("remainder-pstm", "-workload pstm -threads 3 -inserts 13")
	for _, c := range exhaustive {
		add(c[0]+"-p4", c[1]+" -parallel 4")
	}
	golden.Check(t, cases)
}
