package pstm_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pstm"
)

// ExampleHeap_Atomic transfers between two "accounts" durably: either
// both words change or neither, at every possible crash point.
func ExampleHeap_Atomic() {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	h := pstm.MustNew(s, pstm.Config{Words: 2, Policy: core.PolicyEpoch})

	// Seed balances.
	h.Atomic(s, func(tx *pstm.Tx) {
		tx.Store(0, 100)
		tx.Store(1, 0)
	})
	// Transfer 30 from account 0 to account 1.
	committed := h.Atomic(s, func(tx *pstm.Tx) {
		from := tx.Load(0)
		if from < 30 {
			tx.Abort()
			return
		}
		tx.Store(0, from-30)
		tx.Store(1, tx.Load(1)+30)
	})

	state, rep, err := pstm.Recover(m.PersistentImage(), h.Meta())
	if err != nil {
		panic(err)
	}
	fmt.Printf("committed=%v balances=%v detected=%v\n", committed, state.Words, rep.Detected())
	// Output:
	// committed=true balances=[70 30] detected=false
}
