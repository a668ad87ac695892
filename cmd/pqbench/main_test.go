package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// runPQ runs pqbench over args and returns its exit code, stdout and
// stderr.
func runPQ(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = stdout, stderr
	code := cli.Run("pqbench", args, run)
	os.Stdout, os.Stderr = oldOut, oldErr
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	errOut, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), string(errOut)
}

// TestJSONNeedsOneReport pins that -json is refused, before anything
// runs, for an experiment without a JSON report and for all.
func TestJSONNeedsOneReport(t *testing.T) {
	for _, exp := range []string{"all", "banks", "wear", "journal", "pstm", "dist", "races", "unbuffered"} {
		code, out, errOut := runPQ(t, "-experiment", exp, "-inserts", "300", "-threads", "1", "-instr-rate", "1e8", "-json")
		if code != 1 || out != "" || !strings.Contains(errOut, "-json needs one experiment") {
			t.Errorf("-experiment %s -json: exit %d, stdout %q, stderr %q; want exit 1, no stdout and a -json error",
				exp, code, out, errOut)
		}
	}
}

// TestUnknownExperiment pins exit 1 and no output for a name outside
// the experiment list.
func TestUnknownExperiment(t *testing.T) {
	code, out, errOut := runPQ(t, "-experiment", "fig9")
	if code != 1 || out != "" || !strings.Contains(errOut, `unknown experiment "fig9"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 and an unknown-experiment error", code, out, errOut)
	}
}

// TestAllDeterministicAcrossParallel pins that every experiment's text
// output is simulated, not measured, at a fixed instruction rate: the
// whole -experiment all stdout is identical at -parallel 1 and 4.
func TestAllDeterministicAcrossParallel(t *testing.T) {
	var outs []string
	for _, workers := range []string{"1", "4"} {
		code, out, errOut := runPQ(t, "-experiment", "all", "-inserts", "300", "-instr-rate", "1e8", "-parallel", workers)
		if code != 0 {
			t.Fatalf("-parallel %s: exit %d; stderr:\n%s", workers, code, errOut)
		}
		outs = append(outs, out)
	}
	for _, e := range experiments {
		if !strings.Contains(outs[0], "=== "+e.name+" ===\n") {
			t.Errorf("stdout has no %s section", e.name)
		}
	}
	if outs[0] != outs[1] {
		t.Errorf("stdout differs:\n--- parallel=1\n%s\n--- parallel=4\n%s", outs[0], outs[1])
	}
}
