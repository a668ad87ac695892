package journal_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/journal"
)

// ExampleStore_Update applies an atomic two-block metadata update and
// recovers it from the NVRAM image.
func ExampleStore_Update() {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st := journal.MustNew(s, journal.Config{
		Blocks:       4,
		JournalBytes: 4096,
		Policy:       core.PolicyEpoch,
	})

	st.Update(s, []journal.Write{
		{Block: 0, Data: journal.MakeBlock(7)},
		{Block: 1, Data: journal.MakeBlock(7)},
	})

	state, err := journal.Recover(m.PersistentImage(), st.Meta())
	if err != nil {
		panic(err)
	}
	t0, _ := journal.BlockTag(state.Block(0))
	t1, _ := journal.BlockTag(state.Block(1))
	fmt.Printf("txns=%d tags=%d,%d\n", state.Txns, t0, t1)
	// Output:
	// txns=1 tags=7,7
}
