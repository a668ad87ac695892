package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/memory"
	"repro/internal/trace"
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

// KVOptions carries everything needed to rebuild a KV serving run.
// The struct is comparable and keys the bench trace cache.
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

	// PolicyStr preserves the flag spelling for repro params.
	PolicyStr string
}

// Validate rejects generator input no run can honor. Every KV build
// path (kvbench grids, persistcheck, crashsim -replay kv lines) goes
// through it, so untrusted repro parameters are checked here. Shard
// counts are checked by kv.New.
func (o KVOptions) Validate() error {
	if o.Threads <= 0 || o.Ops < o.Threads {
		return fmt.Errorf("kv workload: need ops >= threads > 0 (ops %d, threads %d)", o.Ops, o.Threads)
	}
	if o.Keys == 0 {
		return fmt.Errorf("kv workload: empty key space")
	}
	if !(o.ReadFrac >= 0 && o.ReadFrac <= 1) {
		return fmt.Errorf("kv workload: read fraction %v outside [0, 1]", o.ReadFrac)
	}
	if !(o.ZipfS >= 0) || math.IsInf(o.ZipfS, 1) {
		return fmt.Errorf("kv workload: zipf skew %v must be finite and non-negative", o.ZipfS)
	}
	return nil
}

// Params serializes the options into repro-string parameters.
func (o KVOptions) Params() []fault.Param {
	ps := []fault.Param{
		{Key: "workload", Value: "kv"},
		{Key: "policy", Value: o.PolicyStr},
		{Key: "shards", Value: strconv.Itoa(o.Shards)},
		{Key: "keys", Value: strconv.FormatUint(o.Keys, 10)},
		{Key: "threads", Value: strconv.Itoa(o.Threads)},
		{Key: "ops", Value: strconv.Itoa(o.Ops)},
		{Key: "read-frac", Value: strconv.FormatFloat(o.ReadFrac, 'g', -1, 64)},
		{Key: "zipf", Value: strconv.FormatFloat(o.ZipfS, 'g', -1, 64)},
		{Key: "seed", Value: strconv.FormatInt(o.Seed, 10)},
	}
	if o.Integrity {
		ps = append(ps, fault.Param{Key: "integrity", Value: "1"})
	}
	return ps
}

// KVFromScenario rebuilds options from a repro string's parameters.
func KVFromScenario(s *fault.Scenario) (KVOptions, error) {
	get := func(key, dflt string) string {
		if v, ok := s.Param(key); ok {
			return v
		}
		return dflt
	}
	var firstErr error
	atoi := func(key, dflt string) int {
		v, err := strconv.Atoi(get(key, dflt))
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("repro param %s: %v", key, err)
		}
		return v
	}
	atof := func(key, dflt string) float64 {
		v, err := strconv.ParseFloat(get(key, dflt), 64)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("repro param %s: %v", key, err)
		}
		return v
	}
	pol, err := ParsePolicy(get("policy", "epoch"))
	if err != nil {
		return KVOptions{}, err
	}
	seed, err := strconv.ParseInt(get("seed", "1"), 10, 64)
	if err != nil {
		return KVOptions{}, err
	}
	keys, err := strconv.ParseUint(get("keys", "1024"), 10, 64)
	if err != nil {
		return KVOptions{}, err
	}
	o := KVOptions{
		Shards: atoi("shards", "8"), Keys: keys,
		Threads: atoi("threads", "4"), Ops: atoi("ops", "256"),
		ReadFrac: atof("read-frac", "0.9"), ZipfS: atof("zipf", "1.1"),
		Policy: pol, Seed: seed,
		Integrity: get("integrity", "") == "1",
		PolicyStr: get("policy", "epoch"),
	}
	return o, firstErr
}

// ValFor is the deterministic value a generated Put writes for (key,
// tid, op-index); tests and recovery checks recompute it.
func ValFor(key uint64, tid, i int) uint64 {
	v := key*0x100000001b3 ^ uint64(tid)<<32 ^ uint64(i)
	return v | 1 // nonzero
}

// BuildKV traces one KV serving run and wires up the recovery
// adapters and checker annotations, following the same
// construction-path and cache contract as Build.
func BuildKV(o KVOptions, cache *bench.TraceCache) (*Run, error) {
	if cache == nil {
		tr := &trace.Trace{}
		m := exec.NewMachine(exec.Config{Threads: o.Threads, Seed: o.Seed, Sink: tr})
		run, body, err := setupKV(o, m)
		if err != nil {
			return nil, err
		}
		m.Run(body)
		run.Trace = tr
		return run, nil
	}
	tr, err := cache.Do(o, func() (*trace.Trace, error) {
		run, err := BuildKV(o, nil)
		if err != nil {
			return nil, err
		}
		return run.Trace, nil
	})
	if err != nil {
		return nil, err
	}
	m := exec.NewMachine(exec.Config{Threads: o.Threads, Seed: o.Seed, Sink: trace.Discard})
	run, _, err := setupKV(o, m)
	if err != nil {
		return nil, err
	}
	run.Trace = tr
	return run, nil
}

// setupKV constructs the sharded store and per-thread bodies without
// executing the threads.
func setupKV(o KVOptions, m *exec.Machine) (*Run, func(*exec.Thread), error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
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
	per := o.Ops / o.Threads
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
		Recover: func(im *memory.Image) error {
			_, err := kv.Recover(im, meta)
			return err
		},
		Checked: func(im *memory.Image) (fault.RecoveryReport, error) {
			_, rep, err := kv.RecoverSalvage(im, meta)
			return rep, err
		},
		Checks:    meta.Checks(),
		SiteLabel: meta.SiteLabel(),
		Describe: fmt.Sprintf("sharded kv, %v annotations, %d shards, %d keys, %d threads, %d ops (%.0f%% reads, zipf %.2f)",
			o.Policy, o.Shards, o.Keys, o.Threads, per*o.Threads, 100*o.ReadFrac, o.ZipfS),
	}
	if o.Integrity {
		run.Describe += ", integrity format"
	}
	return run, body, nil
}
