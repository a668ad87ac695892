package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/memory"
	"repro/internal/observer"
)

// Open-loop KV traffic generation. Each simulated thread owns an
// independent, deterministically seeded stream of operations — Zipfian
// keys, Bernoulli read/write mix — issued unconditionally in program
// order (open loop: the schedule never reacts to outcomes, so offered
// load is a pure function of the options). Schedules are precomputed
// outside the machine, making them inspectable by tests and keeping
// rng state out of the simulated threads.

// KVOp is one generated operation.
type KVOp struct {
	Read bool
	Key  uint64
}

// KVGen is the seeded open-loop generator. The zero ZipfS falls back
// to uniform keys; any s > 1 draws from rand.Zipf with that skew
// (P(rank k) ∝ 1/(1+k)^s over [0, Keys)).
type KVGen struct {
	Seed     int64
	Keys     uint64
	ZipfS    float64
	ReadFrac float64
}

// threadSeed derives a per-thread stream seed; the odd multiplier
// decorrelates adjacent thread ids without losing determinism.
func (g KVGen) threadSeed(tid int) int64 {
	return g.Seed ^ (int64(tid)+1)*-0x61c8864680b583eb
}

// Schedule returns thread tid's first n operations. Identical
// (Seed, Keys, ZipfS, ReadFrac, tid, n) always yield the identical
// schedule, independent of any other thread's.
func (g KVGen) Schedule(tid, n int) []KVOp {
	rng := rand.New(rand.NewSource(g.threadSeed(tid)))
	var zipf *rand.Zipf
	if g.ZipfS > 1 {
		zipf = rand.NewZipf(rng, g.ZipfS, 1, g.Keys-1)
	}
	ops := make([]KVOp, n)
	for i := range ops {
		var key uint64
		if zipf != nil {
			key = zipf.Uint64()
		} else {
			key = uint64(rng.Int63n(int64(g.Keys)))
		}
		ops[i] = KVOp{Read: rng.Float64() < g.ReadFrac, Key: key}
	}
	return ops
}

// KVOptions is the kv workload's former option set.
//
// Deprecated: set Workload "kv" and the kv fields of Options, and call
// Build. Kept, with BuildKV, for the benchmark harness until its next
// revision.
type KVOptions struct {
	Shards    int
	Keys      uint64
	Threads   int
	Ops       int // total, split evenly across threads
	ReadFrac  float64
	ZipfS     float64
	Policy    core.Policy
	Integrity bool
	Seed      int64

	PolicyStr string
}

// ValFor is the deterministic value a generated Put writes for (key,
// tid, op-index); tests and recovery checks recompute it.
func ValFor(key uint64, tid, i int) uint64 {
	v := key*0x100000001b3 ^ uint64(tid)<<32 ^ uint64(i)
	return v | 1 // nonzero
}

// BuildKV builds o's kv run through Build.
//
// Deprecated: call Build with Workload "kv". Kept for the benchmark
// harness until its next revision.
func BuildKV(o KVOptions, cache *bench.TraceCache) (*Run, error) {
	return Build(Options{
		Workload: "kv", Policy: o.Policy, Model: o.Policy.Model(),
		Threads: o.Threads, Inserts: o.Ops, Seed: o.Seed, Integrity: o.Integrity,
		Shards: o.Shards, Keys: o.Keys, ReadFrac: o.ReadFrac, ZipfS: o.ZipfS,
	}, cache)
}

// setupKV constructs the sharded store and per-thread bodies without
// executing the threads; o.Inserts is the total operation count.
func setupKV(o Options, m *exec.Machine) (*Run, func(*exec.Thread), error) {
	s := m.SetupThread()
	st, err := kv.New(s, kv.Config{
		Shards:    o.Shards,
		Keys:      o.Keys,
		Policy:    o.Policy,
		Integrity: o.Integrity,
	})
	if err != nil {
		return nil, nil, err
	}
	meta := st.Meta()
	per := o.Inserts / o.Threads
	gen := KVGen{Seed: o.Seed, Keys: o.Keys, ZipfS: o.ZipfS, ReadFrac: o.ReadFrac}
	// Precomputed outside m.Run: each thread's schedule must not depend
	// on the interleaving, and one rng drawn from inside the threads
	// would hand out keys in scheduling order.
	schedules := make([][]KVOp, o.Threads)
	for tid := range schedules {
		schedules[tid] = gen.Schedule(tid, per)
	}
	body := func(t *exec.Thread) {
		tid := t.TID()
		for i, op := range schedules[tid] {
			t.BeginWork(uint64(tid)<<32 | uint64(i))
			if op.Read {
				st.Get(t, op.Key)
			} else {
				st.Put(t, op.Key, ValFor(op.Key, tid, i), uint64(tid)<<32|uint64(i+1))
			}
			t.EndWork(uint64(tid)<<32 | uint64(i))
		}
	}
	run := &Run{
		Checked: func(im *memory.Image) (fault.RecoveryReport, error) {
			_, rep, err := kv.Recover(im, meta)
			return rep, err
		},
		Checks:    meta.Checks(),
		SiteLabel: meta.SiteLabel(),
		Describe: fmt.Sprintf("sharded kv, %v annotations, %d shards, %d keys, %d threads, %d ops (%.0f%% reads, zipf %.2f)",
			o.Policy, o.Shards, o.Keys, o.Threads, per*o.Threads, 100*o.ReadFrac, o.ZipfS),
	}
	run.Recover = observer.Strict(run.Checked)
	if o.Integrity {
		run.Describe += ", integrity format"
	}
	return run, body, nil
}
