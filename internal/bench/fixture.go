package bench

import (
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/persistcheck"
	"repro/internal/pstm"
	"repro/internal/queue"
)

// Fixture is one structure's workload: the structure, built on a
// machine's setup thread, the body of each work item, how many items
// each thread runs, and what the checkers read back. The harness (Run)
// and the checkers (internal/workload) drive the queue, journal and
// pstm through it, so the operation the harness measures is the one the
// checkers recover. Two things stay with the callers. Run brackets
// every item with BeginWork/EndWork and the checkers do not: a bracket
// takes a scheduler step, which moves the checkers' interleavings. And
// the harness sizes the journal ring never to wrap, while the checkers
// shrink it so checkpoints happen.
type Fixture struct {
	// Item runs thread t's i-th work item, for i below Count(t.TID()).
	Item func(t *exec.Thread, i int)
	// Label maps persist addresses to annotation-site labels.
	Label func(memory.Addr) string
	// Checks declares the structure's recovery-critical metadata for the
	// persistency checker.
	Checks persistcheck.Annotations
	// Checked recovers a crash image and then checks the structure's
	// invariant on what it recovered.
	Checked observer.CheckedRecoverFunc
	// Describe is the human-readable workload summary.
	Describe string

	// Each thread runs per items; the extra lowest thread ids run one
	// more.
	per, extra int
}

// Count is thread tid's item count. Queue and journal give the
// remainder of Inserts/Threads to the lowest thread ids; pstm drops it.
func (f *Fixture) Count(tid int) int {
	if tid < f.extra {
		return f.per + 1
	}
	return f.per
}

// itemID names thread tid's i-th item: its work-bracket id and the seed
// of its queue payload.
func itemID(tid, i int) uint64 { return uint64(tid)<<32 | uint64(i) }

// NewFixture builds w's structure on the setup thread s. It reads
// Structure, Design, Policy, Threads, Inserts, PayloadLen, DataBytes,
// Overwrite and Integrity as they are (Run normalizes w first). edit,
// when non-nil, adjusts the sized *queue.Config, *journal.Config or
// *pstm.Config before the structure is made; the checkers seed their
// ordering bugs and shrink the journal ring through it. sparse makes
// journal items write tag-word-only blocks.
func NewFixture(s *exec.Thread, w Workload, sparse bool, edit func(cfg any)) (*Fixture, error) {
	if err := w.size(); err != nil {
		return nil, err
	}
	if edit == nil {
		edit = func(any) {}
	}
	f := &Fixture{per: w.Inserts / w.Threads, extra: w.Inserts % w.Threads}
	switch w.Structure {
	case "journal":
		// Each thread owns a disjoint block pair, so transactions
		// conflict only on the journal structures — the interesting
		// part. The ring holds every transaction's records (two block
		// records and a commit, 128 bytes each), so it never wraps.
		cfg := journal.Config{
			Blocks:       2 * w.Threads,
			JournalBytes: uint64(w.Inserts+w.Threads+2) * 3 * 128,
			Policy:       w.Policy,
			Integrity:    w.Integrity,
		}
		edit(&cfg)
		st, err := journal.New(s, cfg)
		if err != nil {
			return nil, err
		}
		mkBlock, tagOf := journal.MakeBlock, journal.BlockTag
		if sparse {
			mkBlock, tagOf = journal.MakeSparseBlock, journal.SparseBlockTag
		}
		meta := st.Meta()
		f.Item = func(t *exec.Thread, i int) {
			g := t.TID()
			tag := uint64(g*100000 + i + 1)
			st.Update(t, []journal.Write{
				{Block: 2 * g, Data: mkBlock(tag)},
				{Block: 2*g + 1, Data: mkBlock(tag)},
			})
		}
		f.Label, f.Checks = meta.SiteLabel(), meta.Checks()
		f.Checked = func(im *memory.Image) (fault.RecoveryReport, error) {
			state, rep, err := journal.Recover(im, meta)
			if err != nil {
				return rep, err
			}
			// Each thread's block pair was updated atomically: the
			// tags match and the blocks are intact.
			for g := range w.Threads {
				t0, ok0 := tagOf(state.Block(2 * g))
				t1, ok1 := tagOf(state.Block(2*g + 1))
				if !ok0 || !ok1 || t0 != t1 {
					return rep, fmt.Errorf("group %d torn (tags %d/%d intact %v/%v)", g, t0, t1, ok0, ok1)
				}
			}
			return rep, nil
		}
		f.Describe = fmt.Sprintf("journal, %v annotations, %d threads, %d txns", w.Policy, w.Threads, w.Inserts)
	case "pstm":
		// Each thread's transactions store to its own word pair, so
		// they conflict only on the pstm metadata.
		cfg := pstm.Config{Words: 2 * w.Threads, UndoCap: 8, Policy: w.Policy, Integrity: w.Integrity}
		edit(&cfg)
		h, err := pstm.New(s, cfg)
		if err != nil {
			return nil, err
		}
		f.extra = 0
		meta := h.Meta()
		f.Item = func(t *exec.Thread, i int) {
			g := t.TID()
			v := uint64(g*100000 + i + 1)
			h.Atomic(t, func(tx *pstm.Tx) {
				tx.Store(2*g, v)
				tx.Store(2*g+1, v)
			})
		}
		f.Label, f.Checks = meta.SiteLabel(), meta.Checks()
		f.Checked = func(im *memory.Image) (fault.RecoveryReport, error) {
			state, rep, err := pstm.Recover(im, meta)
			if err != nil {
				return rep, err
			}
			// Transactions store one value to both words of a pair.
			for g := range w.Threads {
				if a, b := state.Words[2*g], state.Words[2*g+1]; a != b {
					return rep, fmt.Errorf("pair %d torn (%d != %d)", g, a, b)
				}
			}
			return rep, nil
		}
		f.Describe = fmt.Sprintf("pstm heap, %v annotations, %d threads, %d txns", w.Policy, w.Threads, f.per*w.Threads)
	default:
		cfg := queue.Config{
			DataBytes:  w.DataBytes,
			Design:     w.Design,
			Policy:     w.Policy,
			MaxThreads: w.Threads,
			Overwrite:  w.Overwrite,
			Integrity:  w.Integrity,
		}
		edit(&cfg)
		q, err := queue.New(s, cfg)
		if err != nil {
			return nil, err
		}
		meta, payload := q.Meta(), w.PayloadLen
		// Insert copies the payload into the heap, so each thread
		// refills one buffer.
		bufs := make([][]byte, w.Threads)
		f.Item = func(t *exec.Thread, i int) {
			g := t.TID()
			if bufs[g] == nil {
				bufs[g] = make([]byte, payload)
			}
			q.Insert(t, queue.FillPayload(bufs[g], itemID(g, i)))
		}
		// The payloads recovery may find follow from the counts and the
		// payload rule alone, never from the interleaving. The set is
		// made on the first recovery, so harness runs never build it.
		expect := sync.OnceValue(func() map[string]bool {
			set := make(map[string]bool, w.Inserts)
			for tid := range w.Threads {
				for i := range f.Count(tid) {
					set[string(queue.MakePayload(itemID(tid, i), payload))] = true
				}
			}
			return set
		})
		f.Label, f.Checks = meta.SiteLabel(), meta.Checks()
		f.Checked = func(im *memory.Image) (fault.RecoveryReport, error) {
			entries, rep, err := queue.Recover(im, meta)
			if err != nil {
				return rep, err
			}
			// Entries are in offset order and carry only payloads that
			// were inserted.
			set := expect()
			for i, e := range entries {
				if !set[string(e.Payload)] {
					return rep, fmt.Errorf("entry %d carries a payload never inserted", i)
				}
				if i > 0 && e.Offset <= entries[i-1].Offset {
					return rep, fmt.Errorf("entry %d out of order", i)
				}
			}
			return rep, nil
		}
		f.Describe = fmt.Sprintf("%v queue, %v annotations, %d threads, %d inserts", w.Design, w.Policy, w.Threads, w.Inserts)
	}
	if w.Integrity {
		f.Describe += ", integrity format"
	}
	if sparse {
		f.Describe += ", sparse blocks"
	}
	return f, nil
}
