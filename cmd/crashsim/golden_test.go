package main

import (
	"fmt"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/persistcheck"
	"repro/internal/workload"
)

// witnessRepros returns the repro lines `persistcheck` prints for the
// workload params names, in its output order.
func witnessRepros(t *testing.T, params string) []string {
	t.Helper()
	s, err := fault.ParseRepro("fault1|" + params + "|cut=0:|plan=")
	if err != nil {
		t.Fatal(err)
	}
	o, err := workload.FromScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	run, err := workload.Build(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := persistcheck.Check(run.Trace, core.Params{Model: o.Model}, run.Checks,
		persistcheck.Config{ReproParams: o.Params(), SiteLabel: run.SiteLabel})
	if err != nil {
		t.Fatal(err)
	}
	rep.SortFindings()
	var lines []string
	for _, f := range rep.Findings {
		if f.Repro != "" {
			lines = append(lines, f.Repro)
		}
	}
	return lines
}

// TestGoldenDigests pins `crashsim -replay` of every repro line the CI
// step's two racing witness-pair runs print (kv, and the 2LC queue).
func TestGoldenDigests(t *testing.T) {
	var cases []golden.Case
	for _, r := range []struct{ name, params string }{
		{"racing-kv", "workload=kv,policy=racing,shards=2,keys=8,threads=2,ops=8,read-frac=0.5,seed=42"},
		{"racing-queue-2lc", "workload=queue,design=2lc,policy=racing,threads=2,inserts=8"},
	} {
		for i, line := range witnessRepros(t, r.params) {
			cases = append(cases, golden.Case{
				Name: fmt.Sprintf("replay-%s-%d", r.name, i+1),
				Run:  func() int { return cli.Run("crashsim", []string{"-replay", line}, run) },
			})
		}
	}
	golden.Check(t, cases)
}
