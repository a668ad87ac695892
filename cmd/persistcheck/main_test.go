package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// fixture parses a repro line's parameters into the checked options.
func fixture(t *testing.T, params string) workload.Options {
	t.Helper()
	s, err := fault.ParseRepro("fault1|" + params + "|cut=0:|plan=")
	if err != nil {
		t.Fatal(err)
	}
	o, err := workload.FromScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// kvFixture is the sharded KV fixture the CI gates check: 2 shards, 8
// keys, 2 threads, 8 operations, seed 42.
func kvFixture(t *testing.T, policy string, readFrac float64) workload.Options {
	t.Helper()
	return fixture(t, fmt.Sprintf("workload=kv,policy=%s,shards=2,keys=8,threads=2,ops=8,read-frac=%v,seed=42", policy, readFrac))
}

// kvTarget checks the KV fixture under the policy's target model.
func kvTarget(t *testing.T, policy string, readFrac float64, exhaustive bool) (string, *modelOutput) {
	t.Helper()
	o := kvFixture(t, policy, readFrac)
	text, total, err := checkModels(checkConfig{
		opts:       o,
		models:     []core.Model{o.Model},
		exhaustive: exhaustive,
		parallel:   1,
	})
	if err != nil {
		t.Fatalf("%s: %v", policy, err)
	}
	return text, total
}

// TestKVExitContract pins the kv checks to the exit contract: the clean
// policies report no hazards, and racing — which drops the journal's
// inner barrier, flagged by the epoch-race detector on a write-heavy
// mix — reports witness hazards whose repro lines name the checked
// model last.
func TestKVExitContract(t *testing.T) {
	for _, pol := range []string{"strict", "epoch", "strand"} {
		if _, total := kvTarget(t, pol, 0.5, false); total.hazards != 0 {
			t.Errorf("clean kv %s reported %d hazards", pol, total.hazards)
		}
	}
	text, total := kvTarget(t, "racing", 0.5, false)
	if total.hazards == 0 {
		t.Error("racing kv reported no witness hazards")
	}
	if !strings.Contains(text, ",seed=42,model=epoch|cut=") {
		t.Errorf("kv repro lines lack model=epoch:\n%s", text)
	}
}

// TestKVExhaustive pins the kv -exhaustive path: every reachable crash
// state of the clean policies classifies as recovered.
func TestKVExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration in -short mode")
	}
	// read-frac 0.75 keeps the strand-model crash-state space inside
	// the default budget (46 persists, ~10k reduced states from ~36M
	// cuts); at 0.5 the 67-persist trace exceeds 4M states.
	for _, pol := range []string{"strict", "epoch", "strand"} {
		if _, total := kvTarget(t, pol, 0.75, true); total.hazards != 0 || total.exHazards != 0 {
			t.Errorf("clean kv %s: %d hazards, %d hazardous crash states", pol, total.hazards, total.exHazards)
		}
	}
}

// TestAllModelsDeterministicAcrossParallel pins the -all-models
// contract: the full rendered output — witness findings, repro lines,
// exhaustive verdicts and counterexamples — is byte-identical at any
// -parallel worker count.
func TestAllModelsDeterministicAcrossParallel(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts workload.Options
	}{
		{"queue-break-barrier", fixture(t, "workload=queue,policy=epoch,threads=2,inserts=6,payload=16,break-barrier=1")},
		{"journal-break-commit", fixture(t, "workload=journal,policy=epoch,threads=1,inserts=2,payload=16,break-commit=1,sparse-blocks=1")},
		{"pstm-racing", fixture(t, "workload=pstm,policy=racing,threads=2,inserts=6,payload=16")},
		{"kv-racing", kvFixture(t, "racing", 0.5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for _, workers := range []int{1, 4, 8} {
				cfg := checkConfig{
					opts:       tc.opts,
					models:     core.Models,
					exhaustive: true,
					parallel:   workers,
				}
				text, total, err := checkModels(cfg)
				if err != nil {
					t.Fatalf("parallel=%d: %v", workers, err)
				}
				if total.hazards == 0 {
					t.Fatalf("parallel=%d: broken fixture reported no witness hazards", workers)
				}
				if first == "" {
					first = text
					continue
				}
				if text != first {
					t.Errorf("output differs between -parallel 1 and %d:\n--- parallel=1\n%s\n--- parallel=%d\n%s",
						workers, first, workers, text)
				}
			}
			if !strings.Contains(first, "model    : strict\n") || !strings.Contains(first, "exhaustive:") {
				t.Errorf("output missing expected sections:\n%s", first)
			}
		})
	}
}

// TestMetricsDeterministicAcrossParallel pins the -metrics-out contract:
// apart from the run manifest, the snapshot written with -exhaustive is
// identical at -parallel 1 and 4, for one model (the workers go to the
// exhaustive sweeps) and for the model grid (they go to the models).
func TestMetricsDeterministicAcrossParallel(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"kv-epoch", []string{"-workload", "kv", "-policy", "epoch", "-shards", "2", "-keys", "8",
			"-threads", "2", "-inserts", "8", "-read-frac", "0.75", "-seed", "42"}, 0},
		{"pstm-racing-all-models", []string{"-workload", "pstm", "-policy", "racing",
			"-threads", "2", "-inserts", "6", "-all-models"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var snaps []string
			for _, workers := range []string{"1", "4"} {
				path := filepath.Join(t.TempDir(), "metrics.json")
				args := append([]string{"-exhaustive", "-parallel", workers, "-metrics-out", path}, tc.args...)
				if code := cli.Run("persistcheck", args, run); code != tc.code {
					t.Fatalf("-parallel %s: exit %d, want %d", workers, code, tc.code)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var doc map[string]json.RawMessage
				if err := json.Unmarshal(raw, &doc); err != nil {
					t.Fatal(err)
				}
				delete(doc, "manifest")
				snap, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(snap), `exhaustive_states{model=\"`) {
					t.Fatalf("-parallel %s: snapshot has no exhaustive gauges:\n%s", workers, snap)
				}
				snaps = append(snaps, string(snap))
			}
			if snaps[0] != snaps[1] {
				t.Errorf("snapshots differ:\n--- parallel=1\n%s\n--- parallel=4\n%s", snaps[0], snaps[1])
			}
		})
	}
}

// TestInvalidOptionsExitOne pins that workload flags no workload can
// run fail with exit 1 and an error naming the flag, instead of a
// panic, which exits 2 like a hazard verdict.
func TestInvalidOptionsExitOne(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero threads", []string{"-threads", "0"}, "threads"},
		{"negative threads", []string{"-threads", "-1"}, "threads"},
		{"negative inserts", []string{"-inserts", "-4"}, "insert"},
		{"zero payload", []string{"-payload", "0"}, "payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := os.CreateTemp(t.TempDir(), "stderr")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			old := os.Stderr
			os.Stderr = f
			code := cli.Run("persistcheck", tc.args, run)
			os.Stderr = old
			stderr, err := os.ReadFile(f.Name())
			if err != nil {
				t.Fatal(err)
			}
			if code != 1 || !strings.Contains(string(stderr), "persistcheck: ") || !strings.Contains(string(stderr), tc.want) {
				t.Fatalf("exit %d, want 1 with an error about %s; stderr:\n%s", code, tc.want, stderr)
			}
		})
	}
}

// TestNegativeFlagsExitTwo pins that numeric flags without a meaning
// for negative values reject them as malformed command lines: exit 2
// and an error naming the flag, before anything runs.
func TestNegativeFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-state-budget", "-1"},
		{"-limit", "-5"},
		{"-parallel", "-2"},
	} {
		f, err := os.CreateTemp(t.TempDir(), "stderr")
		if err != nil {
			t.Fatal(err)
		}
		old := os.Stderr
		os.Stderr = f
		code := cli.Run("persistcheck", args, run)
		os.Stderr = old
		stderr, err := os.ReadFile(f.Name())
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if code != 2 || !strings.Contains(string(stderr), "flag "+args[0]+": must not be negative") {
			t.Errorf("%v: exit %d, want 2 with an error naming %s; stderr:\n%s", args, code, args[0], stderr)
		}
	}
}
