package pstm

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
)

func newHeap(t *testing.T, words int, pol core.Policy) (*exec.Machine, *Heap) {
	t.Helper()
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	h, err := New(s, Config{Words: words, UndoCap: 8, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return m, h
}

func TestAtomicBasics(t *testing.T) {
	m, h := newHeap(t, 8, core.PolicyEpoch)
	s := m.SetupThread()
	ok := h.Atomic(s, func(tx *Tx) {
		tx.Store(0, 100)
		tx.Store(1, 200)
		if tx.Load(0) != 100 {
			t.Error("transaction must see its own writes")
		}
	})
	if !ok {
		t.Fatal("commit reported abort")
	}
	state, err := Recover(m.PersistentImage(), h.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if state.Words[0] != 100 || state.Words[1] != 200 || state.RolledBack {
		t.Fatalf("recovered: %+v", state)
	}
}

func TestAbortRollsBack(t *testing.T) {
	m, h := newHeap(t, 4, core.PolicyEpoch)
	s := m.SetupThread()
	h.Atomic(s, func(tx *Tx) { tx.Store(0, 7) })
	ok := h.Atomic(s, func(tx *Tx) {
		tx.Store(0, 99)
		tx.Store(1, 99)
		tx.Abort()
	})
	if ok {
		t.Fatal("aborted transaction reported commit")
	}
	if got := s.Load8(h.Meta().Data); got != 7 {
		t.Fatalf("word 0 = %d after abort", got)
	}
	state, err := Recover(m.PersistentImage(), h.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if state.Words[0] != 7 || state.Words[1] != 0 {
		t.Fatalf("recovered after abort: %+v", state.Words[:2])
	}
}

func TestRepeatedWritesOneUndoRecord(t *testing.T) {
	m, h := newHeap(t, 4, core.PolicyEpoch)
	s := m.SetupThread()
	h.Atomic(s, func(tx *Tx) {
		for i := uint64(0); i < 20; i++ {
			tx.Store(0, i) // must not exhaust UndoCap=8
		}
	})
	state, err := Recover(m.PersistentImage(), h.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if state.Words[0] != 19 {
		t.Fatalf("word 0 = %d", state.Words[0])
	}
}

func TestUndoCapPanics(t *testing.T) {
	m, h := newHeap(t, 16, core.PolicyEpoch)
	s := m.SetupThread()
	defer func() {
		if recover() == nil {
			t.Error("exceeding UndoCap should panic")
		}
	}()
	h.Atomic(s, func(tx *Tx) {
		for i := 0; i < 16; i++ {
			tx.Store(i, 1)
		}
	})
}

func TestOutOfRangePanics(t *testing.T) {
	m, h := newHeap(t, 4, core.PolicyEpoch)
	s := m.SetupThread()
	defer func() {
		if recover() == nil {
			t.Error("out-of-range word should panic")
		}
	}()
	h.Atomic(s, func(tx *Tx) { tx.Store(9, 1) })
}

func TestMultiThreadTxns(t *testing.T) {
	for _, pol := range core.Policies {
		t.Run(pol.String(), func(t *testing.T) {
			m := exec.NewMachine(exec.Config{Threads: 3, Seed: 4})
			s := m.SetupThread()
			h := MustNew(s, Config{Words: 6, UndoCap: 8, Policy: pol})
			m.Run(func(th *exec.Thread) {
				for i := 0; i < 10; i++ {
					h.Atomic(th, func(tx *Tx) {
						// Each thread keeps its pair equal.
						v := tx.Load(th.TID()*2) + 1
						tx.Store(th.TID()*2, v)
						tx.Store(th.TID()*2+1, v)
					})
				}
			})
			state, err := Recover(m.PersistentImage(), h.Meta())
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < 3; g++ {
				if state.Words[2*g] != 10 || state.Words[2*g+1] != 10 {
					t.Fatalf("group %d: %v", g, state.Words[2*g:2*g+2])
				}
			}
		})
	}
}

func TestRecoverValidation(t *testing.T) {
	if _, err := Recover(memory.NewImage(), Meta{}); err == nil {
		t.Fatal("bad meta accepted")
	}
	m, h := newHeap(t, 4, core.PolicyEpoch)
	s := m.SetupThread()
	h.Atomic(s, func(tx *Tx) { tx.Store(0, 5) })
	im := m.PersistentImage()
	// Seal beyond armed id.
	im.WriteWord(h.Meta().Done, 99)
	if _, err := Recover(im, h.Meta()); !IsCorruption(err) {
		t.Fatalf("want corruption, got %v", err)
	}
}

func TestUnsealedTxnRollsBackAtRecovery(t *testing.T) {
	// Arm a transaction and write undo + in-place by hand, leaving the
	// seal stale: recovery must roll back.
	m, h := newHeap(t, 4, core.PolicyEpoch)
	s := m.SetupThread()
	h.Atomic(s, func(tx *Tx) { tx.Store(0, 5) }) // txn 1, sealed
	meta := h.Meta()
	im := m.PersistentImage()
	im.WriteWord(meta.TxnID, 2) // armed txn 2
	rec := meta.Undo
	im.WriteWord(rec, 0)                          // word 0
	im.WriteWord(rec+8, 5)                        // old value
	im.WriteWord(rec+16, recChecksum(2, 0, 0, 5)) // valid record
	im.WriteWord(meta.Data, 1234)                 // torn in-place write
	state, err := Recover(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !state.RolledBack || state.Undone != 1 {
		t.Fatalf("rollback stats: %+v", state)
	}
	if state.Words[0] != 5 {
		t.Fatalf("word 0 = %d after rollback", state.Words[0])
	}
}

// TestPolicyStrings checks that every policy the heap takes has a
// name for its test and table labels, and that an out-of-range value
// still prints.
func TestPolicyStrings(t *testing.T) {
	for _, p := range core.Policies {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
	if core.Policy(9).String() != "policy(9)" {
		t.Fatal("unknown policy")
	}
}

func TestConfigValidation(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	if _, err := New(s, Config{Words: 0}); err == nil {
		t.Fatal("zero words accepted")
	}
	h, err := New(s, Config{Words: 2})
	if err != nil || h.cfg.UndoCap != 16 {
		t.Fatalf("default UndoCap: %v %v", h, err)
	}
	_ = fmt.Sprint(h.Meta())
}
