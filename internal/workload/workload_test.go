package workload

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/queue"
)

func TestParamsRoundTrip(t *testing.T) {
	// Every option — including all four bug-fixture knobs — must survive
	// serialization into repro params and back, so a finding's repro line
	// rebuilds the identical workload.
	o := Options{
		Workload: "journal", Design: queue.CWL, Policy: core.PolicyEpoch,
		Model: core.Epoch, Threads: 3, Inserts: 12, Payload: 32, Seed: 7,
		BreakBar: true, OmitComp: true, BreakCommit: true, OmitRecipe: true,
		DesignStr: "cwl", PolicyStr: "epoch",
	}
	o2, err := FromScenario(&fault.Scenario{Params: o.Params()})
	if err != nil {
		t.Fatal(err)
	}
	if o2 != o {
		t.Fatalf("round trip:\n got %+v\nwant %+v", o2, o)
	}
}

func TestFromScenarioDefaults(t *testing.T) {
	// An empty scenario yields the crashsim flag defaults.
	o, err := FromScenario(&fault.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		Workload: "queue", Design: queue.CWL, Policy: core.PolicyEpoch,
		Model: core.Epoch, Threads: 2, Inserts: 16, Payload: 64, Seed: 1,
		DesignStr: "cwl", PolicyStr: "epoch",
	}
	if o != want {
		t.Fatalf("defaults:\n got %+v\nwant %+v", o, want)
	}
}

func TestBuildIsDeterministicAndCacheable(t *testing.T) {
	// The same options build the same trace, uncached or through the
	// bench trace cache (which only replays the cheap setup pass on a
	// hit), and the run's adapters come back wired either way.
	o := Options{
		Workload: "pstm", Design: queue.CWL, Policy: core.PolicyEpoch,
		Model: core.Epoch, Threads: 2, Inserts: 8, Payload: 64, Seed: 3,
		DesignStr: "cwl", PolicyStr: "epoch",
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
		o := Options{
			Workload: "pstm", Design: queue.CWL, Policy: p, Model: p.Model(),
			Threads: 2, Inserts: 4, Payload: 16, Seed: 1, DesignStr: "cwl", PolicyStr: flag,
		}
		if o2, err := FromScenario(&fault.Scenario{Params: o.Params()}); err != nil || o2 != o {
			t.Errorf("%s: FromScenario round trip = %+v, %v; want %+v", flag, o2, err, o)
		}
		k := KVOptions{
			Shards: 2, Keys: 8, Threads: 2, Ops: 8, ReadFrac: 0.5, ZipfS: 1.1,
			Policy: p, Seed: 1, PolicyStr: flag,
		}
		if k2, err := KVFromScenario(&fault.Scenario{Params: k.Params()}); err != nil || k2 != k {
			t.Errorf("%s: KVFromScenario round trip = %+v, %v; want %+v", flag, k2, err, k)
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
