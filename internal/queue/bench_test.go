package queue

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// BenchmarkNativeInsert measures the instruction execution rate of the
// native queue twins — the measurement behind Table 1's normalization.
func BenchmarkNativeInsert(b *testing.B) {
	for _, d := range []Design{CWL, TwoLock} {
		b.Run(d.String(), func(b *testing.B) {
			q, err := NewNative(Config{DataBytes: 1 << 20, Design: d})
			if err != nil {
				b.Fatal(err)
			}
			payload := MakePayload(1, 100)
			b.SetBytes(100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Insert(payload)
			}
		})
	}
}

// BenchmarkSimulatedInsert measures the simulated queue (engine + trace
// discarded), to size trace-generation costs.
func BenchmarkSimulatedInsert(b *testing.B) {
	for _, d := range []Design{CWL, TwoLock} {
		b.Run(d.String(), func(b *testing.B) {
			m := exec.NewMachine(exec.Config{})
			s := m.SetupThread()
			q := MustNew(s, Config{DataBytes: 1 << 22, Design: d, Policy: core.PolicyEpoch, Overwrite: true})
			payload := MakePayload(1, 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Insert(s, payload)
			}
		})
	}
}

func BenchmarkChecksum(b *testing.B) {
	p := MakePayload(1, 100)
	b.SetBytes(100)
	for i := 0; i < b.N; i++ {
		Checksum(uint64(i), p)
	}
}

func BenchmarkRecover(b *testing.B) {
	for _, entries := range []int{10, 100} {
		b.Run(fmt.Sprintf("%dentries", entries), func(b *testing.B) {
			m := exec.NewMachine(exec.Config{})
			s := m.SetupThread()
			q := MustNew(s, Config{DataBytes: uint64(entries+2) * SlotBytes(100), Design: CWL, Policy: core.PolicyEpoch})
			for i := 0; i < entries; i++ {
				q.Insert(s, MakePayload(uint64(i), 100))
			}
			im := m.PersistentImage()
			meta := q.Meta()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Recover(im, meta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
