package workload

import (
	"flag"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/queue"
)

// defaults returns the options an empty repro line, or a command line
// without workload flags, describes.
func defaults() Options {
	o, err := FromScenario(&fault.Scenario{})
	if err != nil {
		panic(err)
	}
	return o
}

func TestParamsRoundTrip(t *testing.T) {
	// Every option — including all four bug-fixture knobs — must survive
	// serialization into repro params and back, so a finding's repro line
	// rebuilds the identical workload.
	o := defaults()
	o.Workload, o.Design, o.Policy, o.Model = "journal", queue.TwoLock, core.PolicyStrand, core.Epoch
	o.Threads, o.Inserts, o.Payload, o.Seed = 3, 12, 32, 7
	o.BreakBar, o.OmitComp, o.BreakCommit, o.OmitRecipe = true, true, true, true
	o.Integrity, o.SparseBlocks = true, true
	o2, err := FromScenario(&fault.Scenario{Params: o.Params()})
	if err != nil {
		t.Fatal(err)
	}
	if o2 != o {
		t.Fatalf("round trip:\n got %+v\nwant %+v", o2, o)
	}
}

func TestFromScenarioDefaults(t *testing.T) {
	// An empty scenario yields the flag defaults.
	o, err := FromScenario(&fault.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		Workload: "queue", Design: queue.CWL, Policy: core.PolicyEpoch,
		Model: core.Epoch, Threads: 2, Inserts: 16, Payload: 64, Seed: 1,
		Shards: 8, Keys: 1024, ReadFrac: 0.9, ZipfS: 1.1,
	}
	if o != want {
		t.Fatalf("defaults:\n got %+v\nwant %+v", o, want)
	}
	// So does a flag set with no arguments, and a kv line missing its
	// counts takes the same threads and ops.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	parse := Flags(fs, slices.Concat(CommonFlags, []string{"shards", "keys", "read-frac", "sparse-blocks"})...)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got, err := parse(); err != nil || got != want {
		t.Fatalf("flag defaults = %+v, %v; want %+v", got, err, want)
	}
	kv, err := FromScenario(&fault.Scenario{Params: []fault.Param{{Key: "workload", Value: "kv"}}})
	if err != nil || kv.Threads != 2 || kv.Inserts != 16 {
		t.Fatalf("kv line without threads/ops = %+v, %v; want threads 2, ops 16", kv, err)
	}
}

// TestMissingModelIsPolicyTarget pins the one model default: a repro
// line or command line without a model uses the policy's target model,
// for the grid workloads and kv alike.
func TestMissingModelIsPolicyTarget(t *testing.T) {
	for _, tc := range []struct {
		line string
		want core.Model
	}{
		{"fault1|workload=queue,policy=strict|cut=0:|plan=", core.Strict},
		{"fault1|workload=journal,policy=strand|cut=0:|plan=", core.Strand},
		{"fault1|workload=kv,policy=strict|cut=0:|plan=", core.Strict},
	} {
		s, err := fault.ParseRepro(tc.line)
		if err != nil {
			t.Fatal(err)
		}
		if o, err := FromScenario(s); err != nil || o.Model != tc.want {
			t.Errorf("%s: model %v (err %v), want %v", tc.line, o.Model, err, tc.want)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	parse := Flags(fs, CommonFlags...)
	if err := fs.Parse([]string{"-policy", "strand"}); err != nil {
		t.Fatal(err)
	}
	if o, err := parse(); err != nil || o.Model != core.Strand {
		t.Fatalf("-policy strand = %+v, %v; want model strand", o, err)
	}
}

// TestFlagDefaultOverride pins a command's own defaults ("threads=128")
// and the kv spelling of inserts ("ops"): both register and parse into
// Options, and an unregistered parameter keeps its table default.
func TestFlagDefaultOverride(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	parse := Flags(fs, "threads=128", "ops=4096", "seed=42", "read-frac")
	if got := fs.Lookup("threads").DefValue; got != "128" {
		t.Fatalf("-threads default %q, want 128", got)
	}
	if err := fs.Parse([]string{"-ops", "512", "-read-frac", "0.25"}); err != nil {
		t.Fatal(err)
	}
	o, err := parse()
	if err != nil {
		t.Fatal(err)
	}
	if o.Threads != 128 || o.Inserts != 512 || o.Seed != 42 || o.ReadFrac != 0.25 || o.Shards != 8 {
		t.Fatalf("parsed %+v", o)
	}
	// The flag package parses NaN; the table's parser refuses it.
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	parse = Flags(fs, "read-frac")
	if err := fs.Parse([]string{"-read-frac", "NaN"}); err != nil {
		t.Fatal(err)
	}
	if o, err := parse(); err == nil {
		t.Errorf("-read-frac NaN accepted: %+v", o)
	}
}

func TestBuildIsDeterministicAndCacheable(t *testing.T) {
	// The same options build the same trace, uncached or through the
	// bench trace cache (which only replays the cheap setup pass on a
	// hit), and the run's adapters come back wired either way.
	o := Options{
		Workload: "pstm", Design: queue.CWL, Policy: core.PolicyEpoch,
		Model: core.Epoch, Threads: 2, Inserts: 8, Payload: 64, Seed: 3,
	}
	direct, err := Build(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := bench.NewTraceCache(4)
	cached, err := Build(o, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Trace.Equal(direct.Trace) {
		t.Fatal("cached build traces a different execution")
	}
	again, err := Build(o, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Trace.Equal(direct.Trace) {
		t.Fatal("cache hit returned a different trace")
	}
	for _, run := range []*Run{direct, cached, again} {
		if run.Recover == nil || run.Checked == nil || run.SiteLabel == nil ||
			len(run.Checks.Pubs) == 0 || run.Describe == "" {
			t.Fatalf("run not fully wired: %+v", run)
		}
	}
}

func TestBuildRejectsUnknownWorkload(t *testing.T) {
	_, err := Build(Options{Workload: "nope", Threads: 1, Inserts: 1, Payload: 8, Seed: 1}, nil)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestOptionsValidate pins which option sets Build refuses: those that
// used to panic (zero threads divide, a negative insert count
// allocates a negative size, a zero-byte queue payload) or ran with a
// meaningless thread count. Everything else, including zero inserts
// and a payload the journal and PSTM ignore, still builds.
func TestOptionsValidate(t *testing.T) {
	ok := Options{Workload: "queue", Threads: 2, Inserts: 4, Payload: 16, Seed: 1}
	cases := []struct {
		name  string
		mut   func(*Options)
		valid bool
	}{
		{"queue", func(*Options) {}, true},
		{"zero inserts", func(o *Options) { o.Inserts = 0 }, true},
		{"fewer inserts than threads", func(o *Options) { o.Inserts = 1; o.Threads = 3 }, true},
		{"journal ignores payload", func(o *Options) { o.Workload = "journal"; o.Payload = 0 }, true},
		{"pstm ignores payload", func(o *Options) { o.Workload = "pstm"; o.Payload = -1 }, true},
		{"zero threads", func(o *Options) { o.Threads = 0 }, false},
		{"negative threads", func(o *Options) { o.Threads = -1 }, false},
		{"pstm zero threads", func(o *Options) { o.Workload = "pstm"; o.Threads = 0 }, false},
		{"negative inserts", func(o *Options) { o.Inserts = -4 }, false},
		{"journal negative inserts", func(o *Options) { o.Workload = "journal"; o.Inserts = -1 }, false},
		{"zero payload", func(o *Options) { o.Payload = 0 }, false},
		{"oversized payload", func(o *Options) { o.Payload = queue.MaxPayload + 1 }, false},
		{"journal unknown policy", func(o *Options) { o.Workload = "journal"; o.Policy = 4 }, false},
		{"pstm unknown policy", func(o *Options) { o.Workload = "pstm"; o.Policy = 99 }, false},
	}
	for _, tc := range cases {
		o := ok
		tc.mut(&o)
		if err := o.Validate(); (err == nil) != tc.valid {
			t.Errorf("%s: Validate() = %v, want valid %v", tc.name, err, tc.valid)
		}
		run, err := Build(o, nil)
		if (err == nil) != tc.valid || (err == nil) != (run != nil) {
			t.Errorf("%s: Build error %v, want valid %v", tc.name, err, tc.valid)
		}
	}
}

func TestModelForPolicy(t *testing.T) {
	cases := []struct {
		wl     string
		policy core.Policy
		want   core.Model
	}{
		{"queue", core.PolicyStrict, core.Strict},
		{"queue", core.PolicyEpoch, core.Epoch},
		{"queue", core.PolicyRacingEpoch, core.Epoch},
		{"queue", core.PolicyStrand, core.Strand},
		{"pstm", core.PolicyStrand, core.Strand},
		{"journal", core.PolicyEpoch, core.Epoch},
	}
	for _, c := range cases {
		if got := ModelForPolicy(c.wl, c.policy); got != c.want {
			t.Fatalf("ModelForPolicy(%s, %v) = %v, want %v", c.wl, c.policy, got, c.want)
		}
	}
}

// TestPolicyFlags pins the -policy flag spellings: ParsePolicy accepts
// exactly strict, epoch, racing and strand, one per core.Policies entry
// in order, and each policy survives a round trip through repro params
// for the grid workloads and for kv.
func TestPolicyFlags(t *testing.T) {
	for i, flag := range []string{"strict", "epoch", "racing", "strand"} {
		p, err := ParsePolicy(flag)
		if err != nil || p != core.Policies[i] {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", flag, p, err, core.Policies[i])
		}
		for _, wl := range []string{"pstm", "kv"} {
			o := defaults()
			o.Workload, o.Policy, o.Model = wl, p, p.Model()
			if v, _ := (&fault.Scenario{Params: o.Params()}).Param("policy"); v != flag {
				t.Errorf("%s: %s line spells the policy %q", flag, wl, v)
			}
			if o2, err := FromScenario(&fault.Scenario{Params: o.Params()}); err != nil || o2 != o {
				t.Errorf("%s: %s round trip = %+v, %v; want %+v", flag, wl, o2, err, o)
			}
		}
	}
	for _, flag := range []string{"racing-epochs", "Strict", "epochs", "policy(4)", ""} {
		if p, err := ParsePolicy(flag); err == nil {
			t.Errorf("ParsePolicy(%q) = %v, want an error", flag, p)
		}
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := ParseDesign("bogus"); err == nil {
		t.Fatal("bad design accepted")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Fatal("bad model accepted")
	}
	for _, m := range core.Models {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseModel(%s) = %v, %v", m, got, err)
		}
	}
	if _, err := JournalPolicy(core.Policy(99)); err == nil {
		t.Fatal("bad journal policy accepted")
	}
}
