package journal

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/trace"
)

// groupWrites builds a transaction updating the two blocks of group g
// with the given tag (tags make atomicity checkable).
func groupWrites(g int, tag uint64) []Write {
	return []Write{
		{Block: 2 * g, Data: MakeBlock(tag)},
		{Block: 2*g + 1, Data: MakeBlock(tag)},
	}
}

// checkGroups verifies transaction atomicity: each 2-block group must
// carry one intact tag.
func checkGroups(table [][]byte) error {
	for g := 0; g < len(table)/2; g++ {
		t0, ok0 := BlockTag(table[2*g])
		t1, ok1 := BlockTag(table[2*g+1])
		if !ok0 || !ok1 {
			return fmt.Errorf("group %d: torn block", g)
		}
		if t0 != t1 {
			return fmt.Errorf("group %d: mixed tags %d and %d", g, t0, t1)
		}
	}
	return nil
}

func TestUpdateReadRecover(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st := MustNew(s, Config{Blocks: 8, JournalBytes: 1 << 12, Policy: core.PolicyEpoch})
	st.Update(s, groupWrites(0, 7))
	st.Update(s, groupWrites(1, 9))
	st.Update(s, groupWrites(0, 11)) // overwrite group 0

	// Runtime reads see the latest values.
	if tag, ok := BlockTag(st.Read(s, 0)); !ok || tag != 11 {
		t.Fatalf("runtime read: tag %d ok %v", tag, ok)
	}
	// Recovery from the full image matches.
	state := recoverClean(t, m.PersistentImage(), st.Meta())
	if err := checkGroups(state.Table); err != nil {
		t.Fatal(err)
	}
	if tag, _ := BlockTag(state.Block(0)); tag != 11 {
		t.Fatalf("recovered tag %d", tag)
	}
	if tag, _ := BlockTag(state.Block(2)); tag != 9 {
		t.Fatalf("recovered tag %d", tag)
	}
	if state.Txns != 3 || state.Records != 6 {
		t.Fatalf("replay stats: %+v", state)
	}
}

func TestAllPoliciesMultiThread(t *testing.T) {
	for _, pol := range core.Policies {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/%dT", pol, threads), func(t *testing.T) {
				m := exec.NewMachine(exec.Config{Threads: threads, Seed: 5})
				s := m.SetupThread()
				st := MustNew(s, Config{Blocks: 2 * threads * 2, JournalBytes: 1 << 13, Policy: pol})
				m.Run(func(th *exec.Thread) {
					for i := 0; i < 10; i++ {
						g := th.TID() // one group per thread: no write conflicts
						st.Update(th, groupWrites(g, uint64(th.TID()*1000+i+1)))
					}
				})
				state := recoverClean(t, m.PersistentImage(), st.Meta())
				if err := checkGroups(state.Table); err != nil {
					t.Fatal(err)
				}
				for g := 0; g < threads; g++ {
					if tag, _ := BlockTag(state.Block(2 * g)); tag != uint64(g*1000+10) {
						t.Fatalf("group %d final tag %d", g, tag)
					}
				}
			})
		}
	}
}

func TestRingWrapAndCheckpoint(t *testing.T) {
	// A small ring forces many checkpoints; everything must stay
	// recoverable throughout.
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st := MustNew(s, Config{Blocks: 4, JournalBytes: 1 << 10, Policy: core.PolicyEpoch}) // 1 KiB: ~3 txns per ring
	for i := uint64(1); i <= 50; i++ {
		st.Update(s, groupWrites(int(i%2), i))
		if i%7 == 0 {
			state := recoverClean(t, m.PersistentImage(), st.Meta())
			if err := checkGroups(state.Table); err != nil {
				t.Fatalf("txn %d: %v", i, err)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	if _, err := New(s, Config{Blocks: 0, JournalBytes: 1 << 10}); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := New(s, Config{Blocks: 4, JournalBytes: 100}); err == nil {
		t.Error("unaligned journal accepted")
	}
	if _, err := New(s, Config{Blocks: 4, JournalBytes: 128}); err == nil {
		t.Error("tiny journal accepted")
	}
}

func TestUpdateValidation(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st := MustNew(s, Config{Blocks: 4, JournalBytes: 1 << 12, Policy: core.PolicyEpoch})
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty txn", func() { st.Update(s, nil) })
	mustPanic("bad block", func() { st.Update(s, []Write{{Block: 9, Data: MakeBlock(1)}}) })
	mustPanic("bad size", func() { st.Update(s, []Write{{Block: 0, Data: []byte("short")}}) })
}

// recoverClean runs Recover and fails t unless it returns no error and
// a clean report: the strict reading, for images recovery must accept.
func recoverClean(t testing.TB, im *memory.Image, meta Meta) *State {
	t.Helper()
	state, rep, err := Recover(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected() {
		t.Fatalf("clean image produced a dirty report: %s", rep.String())
	}
	return state
}

// recoverDetects fails t unless Recover on im reports corruption.
func recoverDetects(t *testing.T, im *memory.Image, meta Meta) {
	t.Helper()
	if _, rep, err := Recover(im, meta); err != nil || !rep.Detected() {
		t.Fatalf("want detected corruption, got err %v, report %s", err, rep.String())
	}
}

func TestRecoverDetectsCorruption(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st := MustNew(s, Config{Blocks: 4, JournalBytes: 1 << 12, Policy: core.PolicyEpoch})
	st.Update(s, groupWrites(0, 5))
	meta := st.Meta()

	// Checksum damage below the committed head.
	im := m.PersistentImage()
	im.WriteWord(meta.Journal+24, 0xbad)
	recoverDetects(t, im, meta)
	// Checkpoint beyond committed head.
	im = m.PersistentImage()
	im.WriteWord(meta.Checkpoint, im.ReadWord(meta.CommittedHead)+64)
	recoverDetects(t, im, meta)
	// Oversized window.
	im = m.PersistentImage()
	im.WriteWord(meta.CommittedHead, meta.JournalBytes*3)
	recoverDetects(t, im, meta)
	// Bad metadata.
	if _, _, err := Recover(memory.NewImage(), Meta{}); err == nil {
		t.Fatal("bad meta accepted")
	}
}

func TestUncommittedTailIgnored(t *testing.T) {
	// Simulate a crash that persisted records but not the commit word:
	// write records directly, leave CommittedHead at 0.
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st := MustNew(s, Config{Blocks: 4, JournalBytes: 1 << 12, Policy: core.PolicyEpoch})
	st.appendRecord(s, 0, 1, 0, MakeBlock(42))
	state := recoverClean(t, m.PersistentImage(), st.Meta())
	if state.Records != 0 {
		t.Fatalf("uncommitted record replayed: %+v", state)
	}
	if tag, _ := BlockTag(state.Block(0)); tag != 0 {
		t.Fatal("table affected by uncommitted record")
	}
}

func TestBlockTagHelpers(t *testing.T) {
	b := MakeBlock(77)
	if tag, ok := BlockTag(b); !ok || tag != 77 {
		t.Fatalf("round trip: %d %v", tag, ok)
	}
	b[30] ^= 1
	if _, ok := BlockTag(b); ok {
		t.Fatal("torn block reported intact")
	}
	if tag, ok := BlockTag(make([]byte, BlockBytes)); !ok || tag != 0 {
		t.Fatal("zero block should be intact with tag 0")
	}
	if _, ok := BlockTag([]byte("short")); ok {
		t.Fatal("wrong-size block accepted")
	}
	if !bytes.Equal(MakeBlock(5), MakeBlock(5)) {
		t.Fatal("MakeBlock not deterministic")
	}
}

// TestPolicyStrings checks that every policy the journal takes has a
// name for its test and table labels, and that an out-of-range value
// still prints.
func TestPolicyStrings(t *testing.T) {
	for _, p := range core.Policies {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
	if core.Policy(9).String() != "policy(9)" {
		t.Fatal("unknown policy string")
	}
}

func TestAnnotationCounts(t *testing.T) {
	count := func(pol core.Policy) (barriers, strands int) {
		tr := &trace.Trace{}
		m := exec.NewMachine(exec.Config{Sink: tr})
		s := m.SetupThread()
		st := MustNew(s, Config{Blocks: 4, JournalBytes: 1 << 12, Policy: pol})
		st.Update(s, groupWrites(0, 1))
		sum := trace.Summarize(tr)
		return sum.Barriers, sum.Strands
	}
	// Setup emits one barrier. Per txn without checkpoint: outer(2) +
	// inner(2) + stage(2) for epoch/strand; stage(2) + outer(2) for
	// racing; none for strict.
	if b, s := count(core.PolicyStrict); b != 1 || s != 0 {
		t.Errorf("strict: %d barriers %d strands", b, s)
	}
	if b, _ := count(core.PolicyEpoch); b != 1+6 {
		t.Errorf("epoch: %d barriers", b)
	}
	if b, _ := count(core.PolicyRacingEpoch); b != 1+4 {
		t.Errorf("racing: %d barriers", b)
	}
	// Strand adds the §5.3 ordering-read barrier after NewStrand.
	if b, s := count(core.PolicyStrand); b != 1+7 || s != 1 {
		t.Errorf("strand: %d barriers %d strands", b, s)
	}
}
