package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
)

// Pinned outputs, one file per seed, keyed by workload, then by job
// position. They are compiled in, so the benchmark checks them from any
// working directory. Regenerate with
//
//	(cd benchmark && go test -run TestExpected -update .)
//
//go:embed expected
var expectedFS embed.FS

// pinnedSeeds are the seeds with checked-in expected outputs: 42, and
// 1042 held out while the benchmark was written.
var pinnedSeeds = []int64{42, 1042}

func expectedPath(seed int64) string { return fmt.Sprintf("expected/seed%d.json", seed) }

// pinnedFor returns the pinned outputs of a workload for seed, or nil
// when the seed has none.
func pinnedFor(seed int64, workload string) ([]json.RawMessage, error) {
	b, err := expectedFS.ReadFile(expectedPath(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var all map[string][]json.RawMessage
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(seed), err)
	}
	pinned, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("%s pins nothing for workload %s", expectedPath(seed), workload)
	}
	return pinned, nil
}

// matchPinned compares a position's verified output with its pinned
// value.
func matchPinned(expected []json.RawMessage, pos int, got any) error {
	if pos >= len(expected) {
		return fmt.Errorf("no pinned output for position %d", pos)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := json.Compact(&want, expected[pos]); err != nil {
		return err
	}
	if !bytes.Equal(gb, want.Bytes()) {
		return fmt.Errorf("output differs from the pinned value:\n  got  %s\n  want %s", gb, want.Bytes())
	}
	return nil
}
