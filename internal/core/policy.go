package core

import "fmt"

// Policy selects an annotation discipline from the paper's Algorithm 1:
// which persist barriers and strands a persistent structure emits. The
// same structure code runs under every discipline; only the annotations
// differ, exactly as in the paper. Each structure documents what each
// discipline means for it on its barrier helpers.
type Policy uint8

const (
	// PolicyStrict emits no annotations: strict persistency derives all
	// ordering from SC itself.
	PolicyStrict Policy = iota
	// PolicyEpoch surrounds lock operations with persist barriers so
	// epochs never race: persists are ordered across critical sections
	// (the paper's "Epoch" configuration).
	PolicyEpoch
	// PolicyRacingEpoch omits the barriers inside the critical section
	// (Algorithm 1 lines 5 and 11, marked "removing allows race"),
	// intentionally allowing persist-epoch races (the paper's "Racing
	// Epochs" configuration). It targets epoch persistency with fewer
	// barriers.
	PolicyRacingEpoch
	// PolicyStrand additionally begins a new persist strand per
	// operation (Algorithm 1 lines 6 and 21), making operations
	// independent except where strong persist atomicity orders them.
	PolicyStrand
)

// String names the policy as in the paper's Table 1 columns.
func (p Policy) String() string {
	switch p {
	case PolicyStrict:
		return "strict"
	case PolicyEpoch:
		return "epoch"
	case PolicyRacingEpoch:
		return "racing-epochs"
	case PolicyStrand:
		return "strand"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Policies lists the annotation policies in Table 1 order.
var Policies = []Policy{PolicyStrict, PolicyEpoch, PolicyRacingEpoch, PolicyStrand}

// Model returns the persistency model the policy's annotations target:
// strict for no annotations, strand for strand annotations, and epoch
// for both epoch disciplines.
func (p Policy) Model() Model {
	switch p {
	case PolicyStrict:
		return Strict
	case PolicyStrand:
		return Strand
	default:
		return Epoch
	}
}
