package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/trace"
)

// Golden trace pins. Each case hashes the binary encoding of one traced
// run. The scheduler's rng draws decide every interleaving, so a change
// to how threads are scheduled, how many draws a quantum takes, or when
// a store buffer drains shows up here as a different hash, even where
// two runs of the same build still agree with each other.

func traceSHA(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// queueRun traces a CWL queue on a machine built from cfg. Each thread
// inserts perThread entries and then stores its id to a private
// persistent word without a fence, so under PSO that store is still
// buffered when the thread exits.
func queueRun(t *testing.T, cfg exec.Config, policy core.Policy, fences bool, perThread int) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{}
	cfg.Sink = tr
	m := exec.NewMachine(cfg)
	s := m.SetupThread()
	q, err := queue.New(s, queue.Config{
		DataBytes: 1 << 14, Design: queue.CWL, Policy: policy, Fences: fences,
	})
	if err != nil {
		t.Fatal(err)
	}
	tail := s.MallocPersistent(8*cfg.Threads, 64)
	m.Run(func(th *exec.Thread) {
		for i := 0; i < perThread; i++ {
			q.Insert(th, queue.MakePayload(uint64(th.TID())<<32|uint64(i), 40))
		}
		th.Store8(tail+memory.Addr(8*th.TID()), uint64(th.TID())+1)
	})
	return tr
}

func TestGoldenTraceHashes(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) *trace.Trace
		want  string
	}{
		{"kv-read-4096", func(t *testing.T) *trace.Trace {
			o := kvReadShape
			o.Inserts = 4096
			run, err := Build(o, nil)
			if err != nil {
				t.Fatal(err)
			}
			return run.Trace
		}, "9247ba3cb2c6aa3a6fa6341ef7854b6e942b4b22c3f246e256066ccccc10e549"},
		{"queue-cwl-8-threads", func(t *testing.T) *trace.Trace {
			run, err := Build(Options{
				Workload: "queue", Design: queue.CWL, Policy: core.PolicyEpoch,
				Threads: 8, Inserts: 128, Payload: 64, Seed: 42,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return run.Trace
		}, "0a956e5a5837e093769640c873287da6df4dc3ebba170d5031580e238628cf14"},
		{"pso-4-threads-buffer-8", func(t *testing.T) *trace.Trace {
			return queueRun(t, exec.Config{Threads: 4, Seed: 42, Consistency: exec.PSO, StoreBuffer: 8},
				core.PolicyStrand, true, 12)
		}, "e74d77dbaa190433e38433ba66c7b1a1c7cc0c29148edd6dbc662a56457e9c89"},
		{"slice-1", func(t *testing.T) *trace.Trace {
			return queueRun(t, exec.Config{Threads: 3, Seed: 42, Slice: 1}, core.PolicyEpoch, false, 12)
		}, "931f01fc5e62af0c32a583778ac6b919068448084a6a1254d2a5a59c0ad022de"},
		{"sc-1-thread", func(t *testing.T) *trace.Trace {
			return queueRun(t, exec.Config{Threads: 1, Seed: 42}, core.PolicyStrict, false, 32)
		}, "e4d84dca55599b67716afba388a1144536e96428b887653a54360964bd9a8896"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := traceSHA(t, c.build(t)); got != c.want {
				t.Errorf("trace sha256 = %s, want %s", got, c.want)
			}
		})
	}
}

// hashProbe folds every persist record and annotation mark a
// simulator reports into a running SHA-256.
type hashProbe struct{ h hash.Hash }

func (p hashProbe) PersistPlaced(r core.PersistRecord) { fmt.Fprintf(p.h, "%+v\n", r) }
func (p hashProbe) EpochMark(tid int32, i, epoch int64, sync bool) {
	fmt.Fprintf(p.h, "epoch %d %d %d %t\n", tid, i, epoch, sync)
}
func (p hashProbe) StrandMark(tid int32, i, strand int64) {
	fmt.Fprintf(p.h, "strand %d %d %d\n", tid, i, strand)
}
func (p hashProbe) WorkMark(tid int32, i int64, id uint64, begin bool) {
	fmt.Fprintf(p.h, "work %d %d %d %t\n", tid, i, id, begin)
}

// TestGoldenSimRecords pins the timing simulator's outputs: one SHA-256
// over the Simulate result and every PersistRecord and annotation mark
// a probe sees, for KV traces under each annotation policy at word and
// 64-byte tracking (plus 64-byte atomic persists) and a 2LC queue
// trace, each under all four models. A change to the simulator's
// per-block state or its tables that shifts one level, source,
// coalescing decision or mark fails it.
func TestGoldenSimRecords(t *testing.T) {
	var traces []*trace.Trace
	for _, pol := range core.Policies {
		o := kvReadShape
		o.Inserts, o.Policy = 2048, pol
		run, err := Build(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, run.Trace)
	}
	run, err := Build(Options{
		Workload: "queue", Design: queue.TwoLock, Policy: core.PolicyEpoch,
		Threads: 8, Inserts: 256, Payload: 64, Seed: 42,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	traces = append(traces, run.Trace)

	h := sha256.New()
	for _, tr := range traces {
		for _, g := range []struct{ track, atomic uint64 }{{8, 8}, {64, 8}, {64, 64}} {
			for _, m := range core.Models {
				p := core.Params{Model: m, TrackingGranularity: g.track, AtomicGranularity: g.atomic}
				res, err := core.Simulate(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%+v\n", res)
				s := core.MustNewSim(p)
				s.SetProbe(hashProbe{h})
				for e := range tr.All() {
					if err := s.Feed(e); err != nil {
						t.Fatal(err)
					}
				}
				if got := s.Result(); got.CriticalPath != res.CriticalPath || got.Placed != res.Placed {
					t.Fatalf("probed run %+v differs from Simulate %+v", got, res)
				}
			}
		}
	}
	const want = "e88773d8cb6a3846a2d1073c90ad85841f82c944bf335921d13f00b568827011"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("simulator records sha256 = %s, want %s", got, want)
	}
}
