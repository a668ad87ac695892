package workload

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/queue"
)

// param is one workload parameter: its flag name and repro key, its
// default, its help text and the Options field it sets. A parameter's
// text form is the same on the command line and in a repro line.
type param struct {
	key string
	// alias is the key's spelling in kv repro lines and kvbench's
	// flags ("ops" for inserts).
	alias string
	def   string
	help  string
	field func(*Options) any
}

// params declares every workload parameter once. Params, FromScenario
// and Flags all walk it. policy precedes model: an empty model means
// the policy's target model.
var params = []param{
	{key: "workload", def: "queue", help: "queue, journal, pstm, or kv", field: func(o *Options) any { return &o.Workload }},
	{key: "design", def: "cwl", help: "cwl or 2lc (queue only)", field: func(o *Options) any { return &o.Design }},
	{key: "policy", def: "epoch", help: "strict|epoch|racing|strand", field: func(o *Options) any { return &o.Policy }},
	{key: "model", help: "persistency model (default: the policy's target model)", field: func(o *Options) any { return &o.Model }},
	{key: "threads", def: "2", help: "simulated threads", field: func(o *Options) any { return &o.Threads }},
	{key: "inserts", alias: "ops", def: "16", help: "total inserts/transactions (kv: operations, split across threads)", field: func(o *Options) any { return &o.Inserts }},
	{key: "payload", def: "64", help: "payload bytes (queue only)", field: func(o *Options) any { return &o.Payload }},
	{key: "seed", def: "1", help: "seed for the interleaving, the kv generator and crash sampling", field: func(o *Options) any { return &o.Seed }},
	{key: "break-barrier", help: "drop the data→head barrier (negative test)", field: func(o *Options) any { return &o.BreakBar }},
	{key: "omit-completion-barrier", help: "drop 2LC's completion barrier (negative test)", field: func(o *Options) any { return &o.OmitComp }},
	{key: "break-commit", help: "drop the journal's records→commit barrier (negative test)", field: func(o *Options) any { return &o.BreakCommit }},
	{key: "omit-strand-recipe", help: "drop the journal's §5.3 strand recipe (negative test)", field: func(o *Options) any { return &o.OmitRecipe }},
	{key: "integrity", help: "build with the corruption-detecting durable format (CRC frames, durable words, shadows)", field: func(o *Options) any { return &o.Integrity }},
	{key: "sparse-blocks", help: "journal writes tag-word-only blocks (keeps -exhaustive state spaces tractable)", field: func(o *Options) any { return &o.SparseBlocks }},
	{key: "shards", def: "8", help: "shard count, one journaled table per shard (kv only)", field: func(o *Options) any { return &o.Shards }},
	{key: "keys", def: "1024", help: "dense key-space size (kv only)", field: func(o *Options) any { return &o.Keys }},
	{key: "read-frac", def: "0.9", help: "fraction of operations that are reads (kv only)", field: func(o *Options) any { return &o.ReadFrac }},
	{key: "zipf", def: "1.1", help: "Zipf skew s (>1); 0 means uniform keys (kv only)", field: func(o *Options) any { return &o.ZipfS }},
}

// CommonFlags are the workload flags crashsim and persistcheck share.
var CommonFlags = []string{
	"workload", "design", "policy", "model", "threads", "inserts", "payload", "seed",
	"break-barrier", "omit-completion-barrier", "break-commit", "omit-strand-recipe", "integrity",
}

// gridLine and kvLine list the keys a repro line carries, in print
// order, for the queue/journal/pstm grid and for kv.
var (
	gridLine = []string{
		"workload", "design", "policy", "model", "threads", "inserts", "payload", "seed",
		"break-barrier", "omit-completion-barrier", "break-commit", "omit-strand-recipe", "integrity", "sparse-blocks",
	}
	kvLine = []string{"workload", "policy", "shards", "keys", "threads", "ops", "read-frac", "zipf", "seed", "integrity", "model"}
)

func lineKeys(workload string) []string {
	if workload == "kv" {
		return kvLine
	}
	return gridLine
}

// lookup returns the parameter that key names, as its key or alias.
func lookup(key string) *param {
	for i := range params {
		if p := &params[i]; p.key == key || p.alias == key {
			return p
		}
	}
	panic("workload: no parameter " + key)
}

// designs and policies spell the -design and -policy values, indexed
// by value.
var (
	designs  = []string{queue.CWL: "cwl", queue.TwoLock: "2lc"}
	policies = []string{core.PolicyStrict: "strict", core.PolicyEpoch: "epoch", core.PolicyRacingEpoch: "racing", core.PolicyStrand: "strand"}
)

// spell returns v's spelling in names, or "" when it has none.
func spell[T ~uint8](names []string, v T) string {
	if int(v) < len(names) {
		return names[v]
	}
	return ""
}

// unspell returns the value names spells s.
func unspell[T ~uint8](names []string, what, s string) (T, error) {
	i := slices.Index(names, s)
	if i < 0 {
		return 0, fmt.Errorf("unknown %s %q", what, s)
	}
	return T(i), nil
}

// ParseDesign parses a -design flag value.
func ParseDesign(s string) (queue.Design, error) { return unspell[queue.Design](designs, "design", s) }

// ParsePolicy parses a -policy flag value.
func ParsePolicy(s string) (core.Policy, error) { return unspell[core.Policy](policies, "policy", s) }

// ParseModel parses a -model flag value.
func ParseModel(s string) (core.Model, error) {
	for _, m := range core.Models {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q", s)
}

// format renders the parameter's field of o as text; a false switch
// renders as "".
func (p *param) format(o *Options) string {
	switch v := p.field(o).(type) {
	case *string:
		return *v
	case *int:
		return strconv.Itoa(*v)
	case *int64:
		return strconv.FormatInt(*v, 10)
	case *uint64:
		return strconv.FormatUint(*v, 10)
	case *float64:
		return strconv.FormatFloat(*v, 'g', -1, 64)
	case *bool:
		if *v {
			return "1"
		}
		return ""
	case *queue.Design:
		return spell(designs, *v)
	case *core.Policy:
		return spell(policies, *v)
	case *core.Model:
		return v.String()
	}
	panic("workload: unhandled field type for " + p.key)
}

// parse sets the parameter's field of o from text. A switch is on only
// for "1"; an empty model is the target model of o's policy.
func (p *param) parse(o *Options, s string) (err error) {
	switch v := p.field(o).(type) {
	case *string: // the workload name
		if !slices.Contains([]string{"queue", "journal", "pstm", "kv"}, s) {
			return fmt.Errorf("unknown workload %q", s)
		}
		*v = s
	case *int:
		*v, err = strconv.Atoi(s)
	case *int64:
		*v, err = strconv.ParseInt(s, 10, 64)
	case *uint64:
		*v, err = strconv.ParseUint(s, 10, 64)
	case *float64:
		*v, err = strconv.ParseFloat(s, 64)
		if err == nil && math.IsNaN(*v) {
			err = fmt.Errorf("%s is not a number", s)
		}
	case *bool:
		*v = s == "1"
	case *queue.Design:
		*v, err = ParseDesign(s)
	case *core.Policy:
		*v, err = ParsePolicy(s)
	case *core.Model:
		if s == "" {
			*v = o.Policy.Model()
		} else {
			*v, err = ParseModel(s)
		}
	default:
		panic("workload: unhandled field type for " + p.key)
	}
	return err
}

// decode builds Options from text: each parameter takes get's value
// for its key or alias, or else its table default.
func decode(get func(string) (string, bool)) (Options, error) {
	var o Options
	for i := range params {
		p := &params[i]
		v, ok := get(p.key)
		if !ok && p.alias != "" {
			v, ok = get(p.alias)
		}
		if !ok {
			v = p.def
		}
		if err := p.parse(&o, v); err != nil {
			return Options{}, fmt.Errorf("workload parameter %s: %w", p.key, err)
		}
	}
	return o, nil
}

// Params serializes the options into repro-string parameters,
// sufficient for FromScenario to rebuild the identical trace: the keys
// of o's workload family in their print order, switches only when on.
func (o Options) Params() []fault.Param {
	keys := lineKeys(o.Workload)
	ps := make([]fault.Param, 0, len(keys))
	for _, k := range keys {
		if v := lookup(k).format(&o); v != "" {
			ps = append(ps, fault.Param{Key: k, Value: v})
		}
	}
	return ps
}

// FromScenario rebuilds options from a repro string's parameters. It
// reads only the keys of the line's workload family; every missing
// parameter takes the flags' default.
func FromScenario(s *fault.Scenario) (Options, error) {
	wl, _ := s.Param("workload")
	keys := lineKeys(wl)
	return decode(func(k string) (string, bool) {
		if !slices.Contains(keys, k) {
			return "", false
		}
		return s.Param(k)
	})
}

// Flags registers the named parameters as flags on fs. A name may carry
// its own default, as in "threads=128"; otherwise the table default
// applies. The returned function, called after fs.Parse, reads the
// flags into Options the way FromScenario reads a repro line, so an
// unregistered parameter takes its table default.
func Flags(fs *flag.FlagSet, names ...string) func() (Options, error) {
	var o Options // typed flags write here
	text := make(map[string]func() string)
	for _, spec := range names {
		name, def, ok := strings.Cut(spec, "=")
		p := lookup(name)
		if !ok {
			def = p.def
		}
		text[name] = func() string { return p.format(&o) }
		if err := p.parse(&o, def); err != nil {
			panic(fmt.Sprintf("workload: default %q: %v", spec, err))
		}
		switch v := p.field(&o).(type) {
		case *int:
			fs.IntVar(v, name, *v, p.help)
		case *int64:
			fs.Int64Var(v, name, *v, p.help)
		case *uint64:
			fs.Uint64Var(v, name, *v, p.help)
		case *float64:
			fs.Float64Var(v, name, *v, p.help)
		case *bool:
			fs.BoolVar(v, name, *v, p.help)
		default:
			s := fs.String(name, def, p.help)
			text[name] = func() string { return *s }
		}
	}
	return func() (Options, error) {
		return decode(func(k string) (string, bool) {
			if f, ok := text[k]; ok {
				return f(), true
			}
			return "", false
		})
	}
}
