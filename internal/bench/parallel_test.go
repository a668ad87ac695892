package bench

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sweep"
)

// The sweep-determinism contract at the experiment level: equal seeds
// must produce byte-identical JSON reports at any worker count. These
// tests byte-compare the -json output exactly as the CLI would emit it
// (InstrRate fixed so no wall-clock measurement enters the report).

func table1JSON(t *testing.T, parallel int) []byte {
	t.Helper()
	cfg := Table1Config{
		Inserts: 300, Threads: []int{1, 2}, Seed: 42, InstrRate: 1e6,
		Sweep: sweep.Config{Parallel: parallel},
	}
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Table1Report(cfg, rows).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTable1ParallelMatchesSequential(t *testing.T) {
	want := table1JSON(t, 1)
	for _, workers := range []int{2, 8} {
		if got := table1JSON(t, workers); !bytes.Equal(got, want) {
			t.Fatalf("-parallel %d report differs from sequential:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

func granJSON(t *testing.T, parallel int) []byte {
	t.Helper()
	points, err := Fig4(GranularityConfig{
		Inserts: 300, Seed: 7,
		Sweep: sweep.Config{Parallel: parallel},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := GranReport("fig4", points).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGranSweepParallelMatchesSequential(t *testing.T) {
	want := granJSON(t, 1)
	if got := granJSON(t, 8); !bytes.Equal(got, want) {
		t.Fatalf("-parallel 8 report differs from sequential:\n%s\nvs\n%s", got, want)
	}
}

func fig3JSON(t *testing.T, parallel int) []byte {
	t.Helper()
	points, err := Fig3(Fig3Config{
		Inserts: 300, Seed: 11, InstrRate: 1e6,
		Sweep: sweep.Config{Parallel: parallel},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig3Report(points).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFig3ParallelMatchesSequential(t *testing.T) {
	want := fig3JSON(t, 1)
	if got := fig3JSON(t, 8); !bytes.Equal(got, want) {
		t.Fatalf("-parallel 8 report differs from sequential:\n%s\nvs\n%s", got, want)
	}
}

func TestJournalPSTMParallelMatchesSequential(t *testing.T) {
	for _, c := range []struct {
		structure string
		seed      int64
	}{{"journal", 3}, {"pstm", 5}} {
		seq, err := TxnTable(c.structure, 120, []int{1, 2}, c.seed, sweep.Config{Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := TxnTable(c.structure, 120, []int{1, 2}, c.seed, sweep.Config{Parallel: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s rows differ:\n%+v\nvs\n%+v", c.structure, seq, par)
		}
	}
}
