package core

import (
	"slices"
	"testing"
)

// TestPolicy pins the annotation-policy vocabulary: the Table 1 column
// spellings, their order, and the model each column's annotations
// target (the Racing Epochs column is epoch persistency with fewer
// barriers).
func TestPolicy(t *testing.T) {
	cases := []struct {
		p     Policy
		name  string
		model Model
	}{
		{PolicyStrict, "strict", Strict},
		{PolicyEpoch, "epoch", Epoch},
		{PolicyRacingEpoch, "racing-epochs", Epoch},
		{PolicyStrand, "strand", Strand},
	}
	var order []Policy
	for _, c := range cases {
		if got := c.p.String(); got != c.name {
			t.Errorf("Policy(%d).String() = %q, want %q", uint8(c.p), got, c.name)
		}
		if got := c.p.Model(); got != c.model {
			t.Errorf("%v.Model() = %v, want %v", c.p, got, c.model)
		}
		order = append(order, c.p)
	}
	if !slices.Equal(Policies, order) {
		t.Errorf("Policies = %v, want Table 1 order %v", Policies, order)
	}
	if got := Policy(9).String(); got != "policy(9)" {
		t.Errorf("Policy(9).String() = %q, want policy(9)", got)
	}
}
