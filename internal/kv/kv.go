// Package kv implements a sharded persistent key-value store — the
// production serving scenario the ROADMAP targets — composed entirely
// from existing substrates: each shard is a journaled block table
// (internal/journal) on the persistent heap, so every Put inherits the
// journal's failure-atomic record→commit→apply discipline and, with
// Config.Integrity, its corruption-detecting durable format.
//
// Keys are dense integers in [0, Keys); key k lives in shard k % Shards
// at block k / Shards. A Put is a one-block journal transaction under
// the shard's lock; a Get is two lockless word loads (key tag and
// value) straight from the shard's table — the load-before-store
// dependences those reads import are exactly what distinguishes the
// persistency models on a read-mostly serving mix. Cross-shard
// operations share nothing, so shard count bounds both lock contention
// and the persist-order conflict surface.
package kv

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/memory"
	"repro/internal/persistcheck"
)

// Config parameterizes a Store.
type Config struct {
	// Shards is the shard count (each shard is one journal.Store with
	// its own lock, table, and redo ring).
	Shards int
	// Keys is the dense key-space size; key k maps to shard k%Shards,
	// block k/Shards.
	Keys uint64
	// RingBytes is the per-shard redo ring capacity (multiple of 64);
	// 0 means 4 KiB.
	RingBytes uint64
	// Policy selects the journal's annotation discipline per shard.
	Policy core.Policy
	// Integrity hardens the per-shard durable format (CRC-framed redo
	// records, dual-copy pointer words, shadow block checksums).
	Integrity bool
}

// Meta locates every shard's persistent structures for recovery.
type Meta struct {
	Shards []journal.Meta
	Keys   uint64
}

// Store is the sharded persistent KV store.
type Store struct {
	cfg    Config
	shards []*journal.Store
	meta   Meta
}

// New allocates and initializes a Store via a setup thread.
func New(s *exec.Thread, cfg Config) (*Store, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("kv: need at least one shard")
	}
	if cfg.Keys == 0 {
		return nil, fmt.Errorf("kv: empty key space")
	}
	if cfg.RingBytes == 0 {
		cfg.RingBytes = 1 << 12
	}
	st := &Store{cfg: cfg, meta: Meta{Keys: cfg.Keys}}
	for i := 0; i < cfg.Shards; i++ {
		blocks := 1 // shard may own no key, but journal.New requires a table
		if uint64(i) < cfg.Keys {
			blocks = int((cfg.Keys - uint64(i) + uint64(cfg.Shards) - 1) / uint64(cfg.Shards))
		}
		sh, err := journal.New(s, journal.Config{
			Blocks:       blocks,
			JournalBytes: cfg.RingBytes,
			Policy:       cfg.Policy,
			Integrity:    cfg.Integrity,
		})
		if err != nil {
			return nil, fmt.Errorf("kv: shard %d: %w", i, err)
		}
		st.shards = append(st.shards, sh)
		st.meta.Shards = append(st.meta.Shards, sh.Meta())
	}
	return st, nil
}

// MustNew is New that panics on config errors.
func MustNew(s *exec.Thread, cfg Config) *Store {
	st, err := New(s, cfg)
	if err != nil {
		panic(err)
	}
	return st
}

// Meta returns the persistent layout for recovery.
func (st *Store) Meta() Meta { return st.meta }

// tagPubCap bounds the per-key tag publications Checks declares. The
// checker finds a persist's publications by address, but each check
// builds its address index over every publication and keeps state for
// each (a pending list and a per-thread map), and the unprotected-
// metadata lint counts one finding per unprotected tag word, so an
// unbounded key space would grow every check and every report with the
// key count. Fixture grids sit far below the cap; larger stores keep
// the journal-level annotations only.
const tagPubCap = 1024

// Checks merges every shard's recovery-critical annotations and, for
// key spaces within tagPubCap, adds the store-level contract: each
// block's key-tag word publishes the value and version words beside it
// — recovery (DecodeBlock) trusts a nonzero tag to mean both are
// valid. The in-place applies honor it transactionally (a tag persist
// and the payload persists it publishes commit together, so the tag is
// never re-persisted ahead of an unbound payload), and journal replay
// repairs any torn apply the model admits.
func (m Meta) Checks() persistcheck.Annotations {
	var out persistcheck.Annotations
	for _, sm := range m.Shards {
		out = out.Merge(sm.Checks())
	}
	if m.Keys > tagPubCap {
		return out
	}
	shards := uint64(len(m.Shards))
	for key := uint64(0); key < m.Keys; key++ {
		base := m.Shards[key%shards].Table + memory.Addr((key/shards)*journal.BlockBytes)
		out.Pubs = append(out.Pubs, persistcheck.Publication{
			Name: fmt.Sprintf("key%d-tag", key),
			Word: base,
			Data: []persistcheck.Extent{{Addr: base + 8, Size: 16}},
		})
	}
	return out
}

// SiteLabel maps persist addresses to per-shard annotation-site
// labels; table addresses resolve to the owning key's block
// ("shard1/key5") rather than the undifferentiated table.
func (m Meta) SiteLabel() func(memory.Addr) string {
	labels := make([]func(memory.Addr) string, len(m.Shards))
	for i, sm := range m.Shards {
		labels[i] = sm.SiteLabel()
	}
	return func(a memory.Addr) string {
		// The journal labeler says "other" for addresses outside its
		// structures, so only a specific label claims the address.
		for i, fn := range labels {
			l := fn(a)
			if l == "" || l == "other" {
				continue
			}
			if l == "table" {
				block := uint64(a-m.Shards[i].Table) / journal.BlockBytes
				key := block*uint64(len(m.Shards)) + uint64(i)
				if key < m.Keys {
					return fmt.Sprintf("shard%d/key%d", i, key)
				}
			}
			return fmt.Sprintf("shard%d/%s", i, l)
		}
		return "other"
	}
}

func (st *Store) locate(key uint64) (shard *journal.Store, block int) {
	if key >= st.cfg.Keys {
		panic(fmt.Sprintf("kv: key %d out of range [0,%d)", key, st.cfg.Keys))
	}
	return st.shards[key%uint64(st.cfg.Shards)], int(key / uint64(st.cfg.Shards))
}

// EncodeBlock builds the 64-byte table-block content for (key, val,
// ver): a nonzero key tag (key+1, so the zero block reads as absent),
// the value, and a writer version. Exported for recovery validation.
func EncodeBlock(key, val, ver uint64) []byte {
	b := make([]byte, journal.BlockBytes)
	binary.LittleEndian.PutUint64(b[0:8], key+1)
	binary.LittleEndian.PutUint64(b[8:16], val)
	binary.LittleEndian.PutUint64(b[16:24], ver)
	return b
}

// DecodeBlock parses a table block; ok is false for a never-written
// (all-zero tag) block.
func DecodeBlock(b []byte) (key, val, ver uint64, ok bool) {
	tag := binary.LittleEndian.Uint64(b[0:8])
	if tag == 0 {
		return 0, 0, 0, false
	}
	return tag - 1, binary.LittleEndian.Uint64(b[8:16]), binary.LittleEndian.Uint64(b[16:24]), true
}

// Put durably writes key := val as a one-block journal transaction
// under the owning shard's lock. ver tags the write (any per-writer
// monotonic value); the shard's policy decides the annotations.
func (st *Store) Put(t *exec.Thread, key, val, ver uint64) {
	sh, block := st.locate(key)
	sh.Update(t, []journal.Write{{Block: block, Data: EncodeBlock(key, val, ver)}})
}

// Get reads the current value of key without taking the shard lock:
// one load of the key tag and one of the value word. A concurrent Put
// may be applying in place, so a reader can observe a torn pair —
// exactly the volatile-visibility race a real serving store accepts on
// its fast path; recovery correctness never depends on Get.
func (st *Store) Get(t *exec.Thread, key uint64) (val uint64, ok bool) {
	sh, block := st.locate(key)
	base := sh.Meta().Table + memory.Addr(block*journal.BlockBytes)
	if t.Load8(base) == 0 {
		return 0, false
	}
	return t.Load8(base + 8), true
}

// State is the recovered store: per-key entries decoded from every
// shard's recovered table.
type State struct {
	// Entries maps key -> (val, ver) for every present key.
	Entries map[uint64][2]uint64
	// Records and Txns aggregate the per-shard journal replay counts.
	Records int
	Txns    int
}

// Lookup returns the recovered value of key.
func (s *State) Lookup(key uint64) (val uint64, ok bool) {
	e, ok := s.Entries[key]
	return e[0], ok
}

// decodeShard folds one recovered shard table into the state,
// validating that every present block's key tag maps back to exactly
// that (shard, block) slot.
func (s *State) decodeShard(m Meta, shard int, js *journal.State) error {
	shards := uint64(len(m.Shards))
	for i, b := range js.Table {
		key, val, ver, ok := DecodeBlock(b)
		if !ok {
			continue
		}
		if key >= m.Keys || key%shards != uint64(shard) || int(key/shards) != i {
			return fmt.Errorf("kv: shard %d block %d holds key %d (belongs at shard %d block %d)",
				shard, i, key, key%shards, key/shards)
		}
		s.Entries[key] = [2]uint64{val, ver}
	}
	s.Records += js.Records
	s.Txns += js.Txns
	return nil
}

// Recover rebuilds the store from a post-crash image: every shard's
// journal replays independently (journal.Recover) and the per-shard
// reports aggregate, then each table decodes under the key-placement
// invariant. A decode violation is an error.
func Recover(im *memory.Image, m Meta) (*State, fault.RecoveryReport, error) {
	var rep fault.RecoveryReport
	st := &State{Entries: make(map[uint64][2]uint64)}
	for i, sm := range m.Shards {
		js, srep, err := journal.Recover(im, sm)
		rep.Merge(srep)
		if err != nil {
			return nil, rep, fmt.Errorf("kv: shard %d: %w", i, err)
		}
		if err := st.decodeShard(m, i, js); err != nil {
			return nil, rep, err
		}
	}
	return st, rep, nil
}
