// Package workload builds the shipped persistent-structure workloads —
// the CWL/2LC queue, the journaled metadata store, the PSTM heap and
// the sharded KV store — as traced executions with their recovery
// adapters and persistency-check annotations attached. It is the
// construction path for the checkers (cmd/persistcheck, cmd/crashsim,
// the cross-validation tests) and for cmd/kvbench. The queue, journal
// and pstm come from internal/bench's fixtures, the same ones the
// evaluation's harness runs, so the checkers recover the operations the
// harness measures; here the items run without work brackets.
//
// One table (params.go) declares every workload parameter: its flag
// and repro key, default, help text and Options field. The commands'
// flags (Flags), repro lines (Options.Params) and their parser
// (FromScenario) all walk it, so a repro string's parameters rebuild
// the identical trace everywhere.
package workload

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/persistcheck"
	"repro/internal/queue"
	"repro/internal/trace"
)

// Options carries everything needed to rebuild a workload — from flags
// on a fresh run, or from a repro string's parameters on replay. The
// struct is comparable and keys the bench trace cache.
type Options struct {
	Workload string
	Design   queue.Design
	Policy   core.Policy
	Model    core.Model
	Threads  int
	Inserts  int
	Payload  int
	Seed     int64
	// BreakBar drops the queue's data→head barrier (negative test).
	BreakBar bool
	// OmitComp drops 2LC's completion barrier (negative test).
	OmitComp bool
	// BreakCommit drops the journal's records→commit barrier (negative
	// test).
	BreakCommit bool
	// OmitRecipe drops the journal's §5.3 strand recipe (negative test).
	OmitRecipe bool
	// Integrity builds the structure with the corruption-detecting
	// durable format (internal/durable): CRC-framed records, dual-copy
	// pointer words, shadow checksums.
	Integrity bool
	// SparseBlocks makes the journal workload write tag-word-only
	// blocks (zeros elsewhere) instead of fully patterned ones. The
	// exhaustive checker needs this: a patterned 64-byte block is ~8
	// mutually unordered nonzero persists per block under epoch and
	// strand models, an irreducibly exponential image space, while
	// sparse blocks collapse to one image-changing persist each.
	SparseBlocks bool

	// Shards, Keys, ReadFrac and ZipfS shape the kv workload: its shard
	// count, dense key space, read share and Zipf key skew (see KVGen).
	// Inserts is kv's total operation count.
	Shards   int
	Keys     uint64
	ReadFrac float64
	ZipfS    float64

	// Deprecated: the flag spellings follow from Design and Policy, and
	// nothing reads these. Kept for the benchmark harness's literals
	// until its next revision.
	DesignStr, PolicyStr string
}

// Run is a traced execution plus its recovery adapters and checker
// annotations.
type Run struct {
	Trace *trace.Trace
	// Checked is the structure's one recovery scan plus the
	// application invariants: the report and the invariant error.
	Checked observer.CheckedRecoverFunc
	// Recover is the strict reading of Checked, observer.Strict: no
	// error and a report whose Detected() is false.
	Recover observer.RecoverFunc
	// Checks declares the structure's recovery-critical metadata for
	// the persistency checker.
	Checks persistcheck.Annotations
	// SiteLabel maps persist addresses to annotation-site labels, the
	// convention telemetry critical-path attribution uses.
	SiteLabel func(memory.Addr) string
	// Describe is the human-readable workload summary.
	Describe string
}

// Validate rejects option sets no workload can run: an unknown
// workload, fewer than one thread, a negative insert count, a policy
// outside core.Policies, for the queue a payload outside [1,
// queue.MaxPayload], and for kv fewer operations than threads, an
// empty key space, a read fraction outside [0, 1] or a Zipf skew that
// is negative or not finite (kv.New checks the shard count). Build calls it first, so a bad flag or a
// hand-edited repro line is an error instead of a panic deep in exec
// or the structure.
func (o Options) Validate() error {
	if !slices.Contains([]string{"queue", "journal", "pstm", "kv"}, o.Workload) {
		return fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Threads < 1 {
		return fmt.Errorf("%s workload: need threads >= 1 (threads %d)", o.Workload, o.Threads)
	}
	if o.Inserts < 0 {
		return fmt.Errorf("%s workload: negative insert count %d", o.Workload, o.Inserts)
	}
	if !slices.Contains(core.Policies, o.Policy) {
		return fmt.Errorf("%s workload: unknown policy %v", o.Workload, o.Policy)
	}
	if o.Workload == "queue" && (o.Payload < 1 || o.Payload > queue.MaxPayload) {
		return fmt.Errorf("queue workload: payload %d bytes outside [1, %d]", o.Payload, queue.MaxPayload)
	}
	switch {
	case o.Workload != "kv": // the rest are kv's checks
	case o.Inserts < o.Threads:
		return fmt.Errorf("kv workload: need ops >= threads > 0 (ops %d, threads %d)", o.Inserts, o.Threads)
	case o.Keys == 0:
		return fmt.Errorf("kv workload: empty key space")
	case !(o.ReadFrac >= 0 && o.ReadFrac <= 1):
		return fmt.Errorf("kv workload: read fraction %v outside [0, 1]", o.ReadFrac)
	case !(o.ZipfS >= 0) || math.IsInf(o.ZipfS, 1):
		return fmt.Errorf("kv workload: zipf skew %v must be finite and non-negative", o.ZipfS)
	}
	return nil
}

// Build traces one workload run and wires up the recovery adapters and
// checker annotations. A non-nil cache memoizes the traced execution
// keyed by the full option set; on a hit only the (deterministic,
// cheap) setup pass re-runs to rebuild the adapters, and the cached
// trace is adopted.
func Build(o Options, cache *bench.TraceCache) (*Run, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if cache == nil {
		tr := &trace.Trace{}
		m := exec.NewMachine(exec.Config{Threads: o.Threads, Seed: o.Seed, Sink: tr})
		run, body, err := setup(o, m)
		if err != nil {
			return nil, err
		}
		m.Run(body)
		run.Trace = tr
		return run, nil
	}
	tr, err := cache.Do(o, func() (*trace.Trace, error) {
		run, err := Build(o, nil)
		if err != nil {
			return nil, err
		}
		return run.Trace, nil
	})
	if err != nil {
		return nil, err
	}
	m := exec.NewMachine(exec.Config{Threads: o.Threads, Seed: o.Seed, Sink: trace.Discard})
	run, _, err := setup(o, m)
	if err != nil {
		return nil, err
	}
	run.Trace = tr
	return run, nil
}

// setup constructs the workload's persistent structures on m (emitting
// their allocation/initialization events into m's sink) and returns the
// run skeleton plus the per-thread body, without executing the threads.
func setup(o Options, m *exec.Machine) (*Run, func(*exec.Thread), error) {
	if o.Workload == "kv" {
		return setupKV(o, m)
	}
	w := bench.Workload{
		Structure: o.Workload, Design: o.Design, Policy: o.Policy, Threads: o.Threads,
		Inserts: o.Inserts, PayloadLen: o.Payload, Seed: o.Seed, Integrity: o.Integrity,
	}
	f, err := bench.NewFixture(m.SetupThread(), w, o.SparseBlocks, func(cfg any) {
		switch c := cfg.(type) {
		case *queue.Config:
			c.BreakDataHeadOrder, c.OmitCompletionBarrier = o.BreakBar, o.OmitComp
		case *journal.Config:
			c.JournalBytes = 1 << 11 // small ring: checkpoints occur
			c.BreakRecordCommitOrder, c.OmitStrandRecipe = o.BreakCommit, o.OmitRecipe
		}
	})
	if err != nil {
		return nil, nil, err
	}
	run := &Run{
		Checked:   f.Checked,
		Recover:   observer.Strict(f.Checked),
		Checks:    f.Checks,
		SiteLabel: f.Label,
		Describe:  f.Describe,
	}
	return run, func(t *exec.Thread) {
		for i := range f.Count(t.TID()) {
			f.Item(t, i)
		}
	}, nil
}

// JournalPolicy rejects values outside core.Policies and otherwise
// returns p unchanged.
//
// Deprecated: journal and kv take core.Policy directly. Kept for the
// benchmark harness until its next revision.
func JournalPolicy(p core.Policy) (core.Policy, error) {
	if !slices.Contains(core.Policies, p) {
		return 0, fmt.Errorf("unknown policy %v", p)
	}
	return p, nil
}

// ModelForPolicy returns p.Model(); the workload name is ignored.
//
// Deprecated: call p.Model(). Kept for the benchmark harness until its
// next revision.
func ModelForPolicy(_ string, p core.Policy) core.Model { return p.Model() }
