package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/memory"
)

// Repro strings: a failing campaign scenario serialized to one line.
//
//	fault1|k=v,k=v,...|cut=<nodes>:<hex>|plan=<fault>;<fault>;...
//
// The params section is an ordered key=value list the harness uses to
// rebuild the exact workload and trace (workload, design, policy,
// model, threads, inserts, seed, ...); this package round-trips it
// opaquely. The cut section is the node count followed by a hex bitset
// (node i lives in byte i/8, bit i%8). The plan section lists faults
// in Fault.String form; it may be empty (an annotation bug found with
// no faults injected). Everything the replay needs is in the string:
// rebuilding the trace from the seeded scheduler, re-deriving the
// graph, applying the cut and plan, and re-running recovery is fully
// deterministic.

// reproPrefix versions the format.
const reproPrefix = "fault1"

// Param is one harness-defined workload parameter.
type Param struct {
	Key, Value string
}

// Scenario is a complete replayable failure scenario.
type Scenario struct {
	// Params rebuild the workload/trace (harness-interpreted).
	Params []Param
	// Cut is the consistent cut the failure materialized.
	Cut graph.Cut
	// Plan is the injected fault set (possibly empty).
	Plan Plan
}

// Param returns the value for key, if present.
func (s *Scenario) Param(key string) (string, bool) {
	for _, p := range s.Params {
		if p.Key == key {
			return p.Value, true
		}
	}
	return "", false
}

// Repro serializes the scenario to its one-line repro string.
func (s *Scenario) Repro() string {
	var b strings.Builder
	b.WriteString(reproPrefix)
	b.WriteByte('|')
	for i, p := range s.Params {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.Key)
		b.WriteByte('=')
		b.WriteString(p.Value)
	}
	fmt.Fprintf(&b, "|cut=%d:%s", len(s.Cut.Included), encodeBits(s.Cut.Included))
	b.WriteString("|plan=")
	b.WriteString(s.Plan.String())
	return b.String()
}

// ParseRepro parses a repro string back into a scenario.
func ParseRepro(in string) (*Scenario, error) {
	parts := strings.Split(strings.TrimSpace(in), "|")
	if len(parts) != 4 || parts[0] != reproPrefix {
		return nil, fmt.Errorf("fault: repro must have 4 %q-separated sections starting with %q", "|", reproPrefix)
	}
	s := &Scenario{}
	if parts[1] != "" {
		for _, kv := range strings.Split(parts[1], ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				return nil, fmt.Errorf("fault: bad param %q", kv)
			}
			s.Params = append(s.Params, Param{Key: k, Value: v})
		}
	}
	cutStr, ok := strings.CutPrefix(parts[2], "cut=")
	if !ok {
		return nil, fmt.Errorf("fault: missing cut section in %q", parts[2])
	}
	nStr, bits, ok := strings.Cut(cutStr, ":")
	if !ok {
		return nil, fmt.Errorf("fault: cut section %q needs <nodes>:<hex>", cutStr)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("fault: bad cut node count %q", nStr)
	}
	s.Cut.Included, err = decodeBits(bits, n)
	if err != nil {
		return nil, err
	}
	planStr, ok := strings.CutPrefix(parts[3], "plan=")
	if !ok {
		return nil, fmt.Errorf("fault: missing plan section in %q", parts[3])
	}
	s.Plan, err = ParsePlan(planStr)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ParsePlan parses the plan section (a ";"-separated fault list,
// possibly empty).
func ParsePlan(in string) (Plan, error) {
	var p Plan
	if in == "" {
		return p, nil
	}
	for _, fs := range strings.Split(in, ";") {
		f, err := parseFault(fs)
		if err != nil {
			return Plan{}, err
		}
		p.Faults = append(p.Faults, f)
	}
	return p, nil
}

func parseFault(in string) (Fault, error) {
	name, rest, ok := strings.Cut(in, "@")
	if !ok {
		return Fault{}, fmt.Errorf("fault: bad fault %q", in)
	}
	bad := func() (Fault, error) { return Fault{}, fmt.Errorf("fault: bad %s fault %q", name, in) }
	switch name {
	case "torn":
		nodeStr, maskStr, ok := strings.Cut(rest, "/")
		if !ok {
			return bad()
		}
		node, err1 := parseNode(nodeStr)
		mask, err2 := strconv.ParseUint(maskStr, 16, 8)
		if err1 != nil || err2 != nil {
			return bad()
		}
		return Fault{Kind: Torn, Node: node, Mask: uint8(mask)}, nil
	case "drop":
		node, err := parseNode(rest)
		if err != nil {
			return bad()
		}
		return Fault{Kind: Drop, Node: node}, nil
	case "retry":
		nodeStr, attStr, ok := strings.Cut(rest, "x")
		if !ok {
			return bad()
		}
		node, err1 := parseNode(nodeStr)
		att, err2 := strconv.Atoi(attStr)
		if err1 != nil || err2 != nil || att <= 0 {
			return bad()
		}
		return Fault{Kind: Retry, Node: node, Attempts: att}, nil
	case "flipd", "flips":
		addrStr, bitStr, ok := strings.Cut(rest, ".")
		if !ok {
			return bad()
		}
		addr, err1 := strconv.ParseUint(addrStr, 16, 64)
		bit, err2 := strconv.ParseUint(bitStr, 10, 8)
		if err1 != nil || err2 != nil || bit > 7 {
			return bad()
		}
		k := FlipDetected
		if name == "flips" {
			k = FlipSilent
		}
		return Fault{Kind: k, Addr: memory.Addr(addr), Bit: uint8(bit)}, nil
	default:
		return Fault{}, fmt.Errorf("fault: unknown fault kind %q", name)
	}
}

// parseNode parses a fault's node id. Ids are 32-bit, so a value out
// of range is an error rather than a wrapped id naming another node.
func parseNode(s string) (graph.NodeID, error) {
	n, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("fault: negative node %d", n)
	}
	return graph.NodeID(n), nil
}

// encodeBits packs a bool slice into hex, node i in byte i/8, bit i%8.
func encodeBits(bits []bool) string {
	buf := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			buf[i/8] |= 1 << uint(i%8)
		}
	}
	var sb strings.Builder
	for _, c := range buf {
		fmt.Fprintf(&sb, "%02x", c)
	}
	return sb.String()
}

func decodeBits(hexStr string, n int) ([]bool, error) {
	want := (n + 7) / 8
	if len(hexStr) != 2*want {
		return nil, fmt.Errorf("fault: cut bitset has %d hex digits, want %d for %d nodes", len(hexStr), 2*want, n)
	}
	out := make([]bool, n)
	for i := 0; i < want; i++ {
		v, err := strconv.ParseUint(hexStr[2*i:2*i+2], 16, 8)
		if err != nil {
			return nil, fmt.Errorf("fault: bad cut bitset byte %q", hexStr[2*i:2*i+2])
		}
		for j := 0; j < 8 && i*8+j < n; j++ {
			out[i*8+j] = v&(1<<uint(j)) != 0
		}
	}
	return out, nil
}
