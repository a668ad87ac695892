package workload

import (
	"testing"

	"repro/internal/fault"
)

// FuzzFromScenario hardens the repro-parameter parser behind crashsim
// -replay: a line that fault.ParseRepro accepts must never make
// FromScenario panic, and every Options it accepts must round-trip
// through Params. Validate runs too (it must not panic either), but
// Build never does, so no input can ask for a huge run.
func FuzzFromScenario(f *testing.F) {
	for _, seed := range []string{
		// persistcheck -workload queue -design 2lc -policy racing -threads 2 -inserts 8
		"fault1|workload=queue,design=2lc,policy=racing,model=epoch,threads=2,inserts=8,payload=64,seed=1|cut=90:ffffffffffffffffffffff03|plan=flips@100000000.6",
		// persistcheck -workload kv -policy racing -shards 2 -keys 8 -threads 2 -inserts 8 -read-frac 0.5 -seed 42
		"fault1|workload=kv,policy=racing,shards=2,keys=8,threads=2,ops=8,read-frac=0.5,zipf=1.1,seed=42,model=epoch|cut=88:ffffffffbffeff3ff8ff02|plan=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		s, err := fault.ParseRepro(line)
		if err != nil {
			return
		}
		o, err := FromScenario(s)
		if err != nil {
			return
		}
		again, err := FromScenario(&fault.Scenario{Params: o.Params()})
		if err != nil {
			t.Fatalf("accepted %q but rejected its own params %v: %v", line, o.Params(), err)
		}
		if again != o {
			t.Fatalf("round trip of %q changed the options:\n  first  %+v\n  second %+v", line, o, again)
		}
		_ = o.Validate()
	})
}
