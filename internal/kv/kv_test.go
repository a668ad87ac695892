package kv

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/memory"
)

func TestPutGetRecoverRoundTrip(t *testing.T) {
	// Keys deliberately not a multiple of shards, so shard tables have
	// uneven sizes.
	const keys, shards = 37, 5
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st, err := New(s, Config{Shards: shards, Keys: keys, Policy: core.PolicyEpoch})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][2]uint64{}
	for i := 0; i < 100; i++ {
		key := uint64(i*7) % keys
		val, ver := uint64(1000+i), uint64(i+1)
		st.Put(s, key, val, ver)
		want[key] = [2]uint64{val, ver}
	}
	// Runtime reads see the latest values; unwritten keys read absent.
	for key, e := range want {
		if val, ok := st.Get(s, key); !ok || val != e[0] {
			t.Fatalf("Get(%d) = %d, %v; want %d", key, val, ok, e[0])
		}
	}
	for key := uint64(0); key < keys; key++ {
		if _, written := want[key]; !written {
			if _, ok := st.Get(s, key); ok {
				t.Fatalf("Get(%d) found a never-written key", key)
			}
		}
	}
	// Recovery from the full image reproduces exactly the written map.
	state, err := Recover(m.PersistentImage(), st.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Entries) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(state.Entries), len(want))
	}
	for key, e := range want {
		if got, ok := state.Entries[key]; !ok || got != e {
			t.Fatalf("recovered [%d] = %v, %v; want %v", key, got, ok, e)
		}
		if val, ok := state.Lookup(key); !ok || val != e[0] {
			t.Fatalf("Lookup(%d) = %d, %v", key, val, ok)
		}
	}
	if state.Txns != 100 || state.Records != 100 {
		t.Fatalf("replay stats: txns %d records %d", state.Txns, state.Records)
	}
}

func TestAllPoliciesMultiThread(t *testing.T) {
	for _, pol := range core.Policies {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/%dT", pol, threads), func(t *testing.T) {
				const keys = 64
				m := exec.NewMachine(exec.Config{Threads: threads, Seed: 9})
				s := m.SetupThread()
				st := MustNew(s, Config{Shards: 4, Keys: keys, Policy: pol})
				m.Run(func(th *exec.Thread) {
					// Per-thread disjoint key slices: the final state is
					// schedule-independent.
					tid := uint64(th.TID())
					for i := uint64(0); i < 12; i++ {
						key := (tid + uint64(threads)*i) % keys
						st.Put(th, key, tid*100+i, i+1)
					}
				})
				state, err := Recover(m.PersistentImage(), st.Meta())
				if err != nil {
					t.Fatal(err)
				}
				for tid := uint64(0); tid < uint64(threads); tid++ {
					for i := uint64(0); i < 12; i++ {
						key := (tid + uint64(threads)*i) % keys
						if val, ok := state.Lookup(key); !ok || val != tid*100+i {
							t.Fatalf("tid %d op %d key %d: recovered %d, %v", tid, i, key, val, ok)
						}
					}
				}
				// Clean images salvage with nothing discarded.
				st2, rep, err := RecoverSalvage(m.PersistentImage(), st.Meta())
				if err != nil {
					t.Fatal(err)
				}
				if rep.Quarantined != 0 || rep.Dropped != 0 || rep.CRCDetected != 0 {
					t.Fatalf("clean salvage reported %+v", rep)
				}
				if len(st2.Entries) != len(state.Entries) {
					t.Fatalf("salvage recovered %d keys, strict %d", len(st2.Entries), len(state.Entries))
				}
			})
		}
	}
}

func TestShardingInvariants(t *testing.T) {
	// More shards than keys: trailing shards own zero keys and must
	// still construct and recover.
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st := MustNew(s, Config{Shards: 8, Keys: 3, Policy: core.PolicyStrict})
	for key := uint64(0); key < 3; key++ {
		st.Put(s, key, key+10, 1)
	}
	state, err := Recover(m.PersistentImage(), st.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Entries) != 3 {
		t.Fatalf("recovered %d keys", len(state.Entries))
	}

	// A block holding a key that belongs to a different slot must fail
	// placement validation. Key 1 lives at shard 1 block 0; plant key
	// 0's tag there (key 1 was never journaled in this image region
	// after we overwrite, so replay won't repair it).
	m2 := exec.NewMachine(exec.Config{})
	s2 := m2.SetupThread()
	st2 := MustNew(s2, Config{Shards: 2, Keys: 8, Policy: core.PolicyEpoch})
	st2.Put(s2, 0, 42, 1)
	im := m2.PersistentImage()
	im.WriteWord(st2.Meta().Shards[1].Table, 0+1) // key-0 tag in shard 1
	if _, err := Recover(im, st2.Meta()); err == nil {
		t.Fatal("misplaced key accepted")
	}

	// Out-of-range keys panic at the access layer.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range key accepted")
			}
		}()
		st2.Put(s2, 8, 1, 1)
	}()
}

func TestBlockCodec(t *testing.T) {
	b := EncodeBlock(5, 77, 3)
	if len(b) != journal.BlockBytes {
		t.Fatalf("block size %d", len(b))
	}
	key, val, ver, ok := DecodeBlock(b)
	if !ok || key != 5 || val != 77 || ver != 3 {
		t.Fatalf("round trip: %d %d %d %v", key, val, ver, ok)
	}
	if _, _, _, ok := DecodeBlock(make([]byte, journal.BlockBytes)); ok {
		t.Fatal("zero block decoded as present")
	}
}

func TestConfigValidation(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	if _, err := New(s, Config{Shards: 0, Keys: 4}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := New(s, Config{Shards: 2, Keys: 0}); err == nil {
		t.Error("empty key space accepted")
	}
	if _, err := New(s, Config{Shards: 2, Keys: 4, RingBytes: 100}); err == nil {
		t.Error("unaligned ring accepted")
	}
}

func TestSiteLabelAndChecks(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st := MustNew(s, Config{Shards: 3, Keys: 9, Policy: core.PolicyEpoch})
	meta := st.Meta()
	label := meta.SiteLabel()
	for i, sm := range meta.Shards {
		// Table addresses resolve to the owning key: shard i block b
		// holds key b*shards+i.
		if got := label(sm.Table); got != fmt.Sprintf("shard%d/key%d", i, i) {
			t.Fatalf("shard %d table label %q", i, got)
		}
		if got := label(sm.Table + 64); got != fmt.Sprintf("shard%d/key%d", i, 3+i) {
			t.Fatalf("shard %d block 1 label %q", i, got)
		}
		if got := label(sm.Journal); got != fmt.Sprintf("shard%d/journal", i) {
			t.Fatalf("shard %d journal label %q", i, got)
		}
	}
	if got := label(memory.PersistentBase - 8); got != "other" {
		t.Fatalf("unowned address labeled %q", got)
	}
	checks := meta.Checks()
	// 2 journal pubs per shard + one tag pub per key.
	if want := 2*len(meta.Shards) + int(meta.Keys); len(checks.Pubs) != want {
		t.Fatalf("got %d publications, want %d", len(checks.Pubs), want)
	}
	tags := 0
	for _, p := range checks.Pubs {
		if !strings.HasSuffix(p.Name, "-tag") {
			continue
		}
		tags++
		if len(p.Data) != 1 || p.Data[0].Addr != p.Word+8 || p.Data[0].Size != 16 {
			t.Fatalf("tag pub %q publishes %+v, want the 16-byte val/ver pair beside the word", p.Name, p.Data)
		}
	}
	if tags != int(meta.Keys) {
		t.Fatalf("got %d tag publications, want %d", tags, meta.Keys)
	}
	// Every journal checkpoint region is scoped to its own shard.
	for _, reg := range checks.OrderAfter {
		if len(reg.Covers) == 0 {
			t.Fatalf("region %q has an unscoped contract in a composed store", reg.Name)
		}
	}
}

func TestChecksTagPubCap(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st := MustNew(s, Config{Shards: 1, Keys: tagPubCap + 1, RingBytes: 1 << 12, Policy: core.PolicyEpoch})
	checks := st.Meta().Checks()
	for _, p := range checks.Pubs {
		if strings.HasSuffix(p.Name, "-tag") {
			t.Fatalf("tag pub %q declared above tagPubCap", p.Name)
		}
	}
}
