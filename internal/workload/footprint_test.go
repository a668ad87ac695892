package workload

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/trace"
)

// kvReadShape is one kv-read serving run: 16 shards, 65,536 keys, 32
// threads and 16,384 ops at 0.9 reads, Zipf 1.1, epoch annotations.
var kvReadShape = Options{
	Workload: "kv", Policy: core.PolicyEpoch, Model: core.Epoch,
	Threads: 32, Inserts: 16384, Seed: 42,
	Shards: 16, Keys: 65536, ReadFrac: 0.9, ZipfS: 1.1,
}

// TestKVFootprint bounds the per-address memory of the serving path on
// the kv-read shape. Such a trace touches about 16k tracking blocks
// scattered over a large store; the simulator's tables and exec's word
// pages must follow those blocks, not the heap span around them. A
// fresh simulator's tables take 2.3 MB (bound 6 MiB) and the word
// pages 1.1 MB (bound 1.5 MiB). With 256-slot simulator pages of
// 104-byte slots the tables took 37 MB, with 8-slot pages of 72-byte
// slots 4.4 MB, and 32 KiB word pages 3.1 MB.
func TestKVFootprint(t *testing.T) {
	// Build's kv run inline: its Run does not expose the machine, and
	// MemStats needs it.
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: kvReadShape.Threads, Seed: kvReadShape.Seed, Sink: tr})
	_, body, err := setupKV(kvReadShape, m)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(body)
	ms := m.MemStats()
	words := ms.VolBytes + ms.PerBytes

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := core.MustNewSim(core.Params{Model: core.Epoch})
	for e := range tr.All() {
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const maxTables, maxWords = 6 << 20, 1536 << 10
	if tables := after.TotalAlloc - before.TotalAlloc; tables > maxTables {
		t.Errorf("a fresh simulator's tables took %d bytes, want <= %d", tables, maxTables)
	}
	if words > maxWords {
		t.Errorf("exec's word pages took %d bytes (%d pages), want <= %d", words, ms.VolPages+ms.PerPages, maxWords)
	}
}
