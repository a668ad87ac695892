// Package workload builds the shipped persistent-structure workloads —
// the CWL/2LC queue, the journaled metadata store, the PSTM heap — as
// traced executions with their recovery adapters and persistency-check
// annotations attached. It is the single construction path shared by
// cmd/crashsim, cmd/persistcheck, and the cross-validation tests, so a
// repro string's parameters rebuild the identical trace everywhere.
package workload

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/persistcheck"
	"repro/internal/pstm"
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

	// DesignStr/PolicyStr preserve the flag spellings for repro params.
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

// Validate rejects option sets no workload can run: fewer than one
// thread, a negative insert count, a policy outside core.Policies, or
// (for the queue) a payload outside [1, queue.MaxPayload]. Build calls
// it first, so a bad flag or a hand-edited repro line is an error instead of a panic deep in exec or
// the queue.
func (o Options) Validate() error {
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
	return nil
}

// Params serializes the options into repro-string parameters,
// sufficient for FromScenario to rebuild the identical trace.
func (o Options) Params() []fault.Param {
	ps := []fault.Param{
		{Key: "workload", Value: o.Workload},
		{Key: "design", Value: o.DesignStr},
		{Key: "policy", Value: o.PolicyStr},
		{Key: "model", Value: o.Model.String()},
		{Key: "threads", Value: strconv.Itoa(o.Threads)},
		{Key: "inserts", Value: strconv.Itoa(o.Inserts)},
		{Key: "payload", Value: strconv.Itoa(o.Payload)},
		{Key: "seed", Value: strconv.FormatInt(o.Seed, 10)},
	}
	if o.BreakBar {
		ps = append(ps, fault.Param{Key: "break-barrier", Value: "1"})
	}
	if o.OmitComp {
		ps = append(ps, fault.Param{Key: "omit-completion-barrier", Value: "1"})
	}
	if o.BreakCommit {
		ps = append(ps, fault.Param{Key: "break-commit", Value: "1"})
	}
	if o.OmitRecipe {
		ps = append(ps, fault.Param{Key: "omit-strand-recipe", Value: "1"})
	}
	if o.Integrity {
		ps = append(ps, fault.Param{Key: "integrity", Value: "1"})
	}
	if o.SparseBlocks {
		ps = append(ps, fault.Param{Key: "sparse-blocks", Value: "1"})
	}
	return ps
}

// FromScenario rebuilds options from a repro string's parameters,
// applying the same defaults as the crashsim flags.
func FromScenario(s *fault.Scenario) (Options, error) {
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
	design, err := ParseDesign(get("design", "cwl"))
	if err != nil {
		return Options{}, err
	}
	policy, err := ParsePolicy(get("policy", "epoch"))
	if err != nil {
		return Options{}, err
	}
	model, err := ParseModel(get("model", "epoch"))
	if err != nil {
		return Options{}, err
	}
	seed, err := strconv.ParseInt(get("seed", "1"), 10, 64)
	if err != nil {
		return Options{}, err
	}
	o := Options{
		Workload: get("workload", "queue"), Design: design, Policy: policy, Model: model,
		Threads: atoi("threads", "2"), Inserts: atoi("inserts", "16"), Payload: atoi("payload", "64"),
		Seed:         seed,
		BreakBar:     get("break-barrier", "") == "1",
		OmitComp:     get("omit-completion-barrier", "") == "1",
		BreakCommit:  get("break-commit", "") == "1",
		OmitRecipe:   get("omit-strand-recipe", "") == "1",
		Integrity:    get("integrity", "") == "1",
		SparseBlocks: get("sparse-blocks", "") == "1",
		DesignStr:    get("design", "cwl"), PolicyStr: get("policy", "epoch"),
	}
	return o, firstErr
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
	s := m.SetupThread()
	run := &Run{}
	var body func(*exec.Thread)
	switch o.Workload {
	case "queue":
		q, err := queue.New(s, queue.Config{
			DataBytes:             DataBytes(o.Inserts, o.Payload),
			Design:                o.Design,
			Policy:                o.Policy,
			MaxThreads:            o.Threads,
			BreakDataHeadOrder:    o.BreakBar,
			OmitCompletionBarrier: o.OmitComp,
			Integrity:             o.Integrity,
		})
		if err != nil {
			return nil, nil, err
		}
		meta := q.Meta()
		per := o.Inserts / o.Threads
		// Precomputed outside m.Run: each thread's inserts, and so the
		// set recovery must find, follow from the options alone and must
		// not depend on the interleaving.
		expect := make(map[string]bool)
		for tid := 0; tid < o.Threads; tid++ {
			for i := 0; i < per; i++ {
				expect[string(queue.MakePayload(uint64(tid)<<32|uint64(i), o.Payload))] = true
			}
		}
		body = func(t *exec.Thread) {
			for i := 0; i < per; i++ {
				q.Insert(t, queue.MakePayload(uint64(t.TID())<<32|uint64(i), o.Payload))
			}
		}
		run.Checked = func(im *memory.Image) (fault.RecoveryReport, error) {
			entries, rep, err := queue.Recover(im, meta)
			if err != nil {
				return rep, err
			}
			return rep, CheckQueueEntries(entries, expect)
		}
		run.Checks = meta.Checks()
		run.SiteLabel = meta.SiteLabel()
		run.Describe = fmt.Sprintf("%v queue, %v annotations, %d threads, %d inserts", o.Design, o.Policy, o.Threads, per*o.Threads)
	case "journal":
		st, err := journal.New(s, journal.Config{
			Blocks:                 2 * o.Threads,
			JournalBytes:           1 << 11, // small ring: checkpoints occur
			Policy:                 o.Policy,
			BreakRecordCommitOrder: o.BreakCommit,
			OmitStrandRecipe:       o.OmitRecipe,
			Integrity:              o.Integrity,
		})
		if err != nil {
			return nil, nil, err
		}
		meta := st.Meta()
		per := o.Inserts / o.Threads
		mkBlock := journal.MakeBlock
		tagOf := journal.BlockTag
		if o.SparseBlocks {
			mkBlock = journal.MakeSparseBlock
			tagOf = journal.SparseBlockTag
		}
		body = func(t *exec.Thread) {
			g := t.TID()
			for i := 0; i < per; i++ {
				tag := uint64(t.TID()*100000 + i + 1)
				st.Update(t, []journal.Write{
					{Block: 2 * g, Data: mkBlock(tag)},
					{Block: 2*g + 1, Data: mkBlock(tag)},
				})
			}
		}
		run.Checked = func(im *memory.Image) (fault.RecoveryReport, error) {
			state, rep, err := journal.Recover(im, meta)
			if err != nil {
				return rep, err
			}
			return rep, CheckJournalPairsBy(state, o.Threads, tagOf)
		}
		run.Checks = meta.Checks()
		run.SiteLabel = meta.SiteLabel()
		run.Describe = fmt.Sprintf("journal, %v annotations, %d threads, %d txns", o.Policy, o.Threads, per*o.Threads)
	case "pstm":
		h, err := pstm.New(s, pstm.Config{Words: 2 * o.Threads, UndoCap: 8, Policy: o.Policy, Integrity: o.Integrity})
		if err != nil {
			return nil, nil, err
		}
		meta := h.Meta()
		per := o.Inserts / o.Threads
		body = func(t *exec.Thread) {
			g := t.TID()
			for i := 0; i < per; i++ {
				v := uint64(t.TID()*100000 + i + 1)
				h.Atomic(t, func(tx *pstm.Tx) {
					tx.Store(2*g, v)
					tx.Store(2*g+1, v)
				})
			}
		}
		run.Checked = func(im *memory.Image) (fault.RecoveryReport, error) {
			state, rep, err := pstm.Recover(im, meta)
			if err != nil {
				return rep, err
			}
			return rep, CheckPSTMPairs(state, o.Threads)
		}
		run.Checks = meta.Checks()
		run.SiteLabel = meta.SiteLabel()
		run.Describe = fmt.Sprintf("pstm heap, %v annotations, %d threads, %d txns", o.Policy, o.Threads, per*o.Threads)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	run.Recover = observer.Strict(run.Checked)
	if o.Integrity {
		run.Describe += ", integrity format"
	}
	if o.SparseBlocks {
		run.Describe += ", sparse blocks"
	}
	return run, body, nil
}

// CheckQueueEntries validates recovered entries against the insert set:
// in offset order and carrying only payloads that were really inserted.
func CheckQueueEntries(entries []queue.Entry, expect map[string]bool) error {
	var lastOff uint64
	for i, e := range entries {
		if !expect[string(e.Payload)] {
			return fmt.Errorf("entry %d carries a payload never inserted", i)
		}
		if i > 0 && e.Offset <= lastOff {
			return fmt.Errorf("entry %d out of order", i)
		}
		lastOff = e.Offset
	}
	return nil
}

// CheckJournalPairs validates the journal app invariant: each thread's
// block pair was updated atomically, so tags match and blocks are
// intact.
func CheckJournalPairs(state *journal.State, threads int) error {
	return CheckJournalPairsBy(state, threads, journal.BlockTag)
}

// CheckJournalPairsBy is CheckJournalPairs with an explicit tag
// extractor, for workloads writing sparse blocks.
func CheckJournalPairsBy(state *journal.State, threads int, tagOf func([]byte) (uint64, bool)) error {
	for g := 0; g < threads; g++ {
		t0, ok0 := tagOf(state.Block(2 * g))
		t1, ok1 := tagOf(state.Block(2*g + 1))
		if !ok0 || !ok1 || t0 != t1 {
			return fmt.Errorf("group %d torn (tags %d/%d intact %v/%v)", g, t0, t1, ok0, ok1)
		}
	}
	return nil
}

// CheckPSTMPairs validates the pstm app invariant: transactions store
// the same value to both words of a pair, so recovered pairs match.
func CheckPSTMPairs(state *pstm.State, threads int) error {
	for g := 0; g < threads; g++ {
		if a, b := state.Words[2*g], state.Words[2*g+1]; a != b {
			return fmt.Errorf("pair %d torn (%d != %d)", g, a, b)
		}
	}
	return nil
}

// DataBytes sizes the queue's data segment so an insert-only run never
// wraps.
func DataBytes(inserts, payload int) uint64 {
	n := uint64(inserts+2) * queue.SlotBytes(payload)
	return n + queue.SlotAlign
}

// ParseDesign parses a -design flag value.
func ParseDesign(s string) (queue.Design, error) {
	switch s {
	case "cwl":
		return queue.CWL, nil
	case "2lc":
		return queue.TwoLock, nil
	default:
		return 0, fmt.Errorf("unknown design %q", s)
	}
}

// ParsePolicy parses a -policy flag value.
func ParsePolicy(s string) (core.Policy, error) {
	switch s {
	case "strict":
		return core.PolicyStrict, nil
	case "epoch":
		return core.PolicyEpoch, nil
	case "racing":
		return core.PolicyRacingEpoch, nil
	case "strand":
		return core.PolicyStrand, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

// ParseModel parses a -model flag value.
func ParseModel(s string) (core.Model, error) {
	for _, m := range core.Models {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q", s)
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
