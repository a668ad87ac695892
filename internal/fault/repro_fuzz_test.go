package fault

import (
	"reflect"
	"testing"
)

// FuzzParseRepro hardens the parser crashsim -replay feeds untrusted
// lines to: it must never panic, and every line it accepts must
// serialize back through Repro to a line that re-parses to an equal
// Scenario.
func FuzzParseRepro(f *testing.F) {
	for _, seed := range []string{
		"fault1|workload=queue,design=cwl,policy=epoch,model=epoch,threads=2,inserts=6,payload=16,seed=1|cut=20:ff0f03|plan=torn@3/0f;drop@5;retry@7x2;flipd@100000040.3;flips@100000048.7",
		"fault1|workload=kv,policy=strand,shards=2,keys=8,threads=2,ops=8,read-frac=0.75,zipf=1.1,seed=42,model=strand|cut=46:ffffffffff3f|plan=",
		"fault1||cut=0:|plan=",
		"fault1||cut=0:|plan=drop@4294967296",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		s, err := ParseRepro(line)
		if err != nil {
			return
		}
		again, err := ParseRepro(s.Repro())
		if err != nil {
			t.Fatalf("accepted %q but rejected its re-serialization %q: %v", line, s.Repro(), err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip of %q changed the scenario:\n  first  %+v\n  second %+v", line, s, again)
		}
	})
}
