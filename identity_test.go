package rescq

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// identityCase is one pinned Run configuration.
type identityCase struct {
	bench string
	opts  Options
}

func (c identityCase) name() string {
	s := fmt.Sprintf("%s/%s/d%d", c.bench, c.opts.Scheduler, c.opts.Distance)
	if c.opts.Layout != "" {
		s += "/" + c.opts.Layout
	}
	if c.opts.Compression > 0 {
		s += fmt.Sprintf("/c%g", c.opts.Compression)
	}
	return s
}

// identityCases covers every scheduler on three benchmarks of different
// shape at two code distances, plus the compact layout and a compressed
// STAR grid, whose holes route the BFS and braid searches around gaps.
func identityCases() []identityCase {
	var cases []identityCase
	for _, b := range []string{"gcm_n13", "qft_n29", "dnn_n16"} {
		for _, s := range []SchedulerKind{Greedy, AutoBraid, RESCQ} {
			for _, d := range []int{5, 7} {
				cases = append(cases, identityCase{b, Options{Scheduler: s, Distance: d, Runs: 2}})
			}
		}
	}
	for _, s := range []SchedulerKind{Greedy, AutoBraid, RESCQ} {
		cases = append(cases,
			identityCase{"gcm_n13", Options{Scheduler: s, Distance: 5, Runs: 2, Layout: "compact"}},
			identityCase{"gcm_n13", Options{Scheduler: s, Distance: 5, Runs: 2, Compression: 0.5}})
	}
	return cases
}

// identityPins holds the SHA-256 of each case's Summary JSON. The engine's
// host-side optimisations (routing scratch, activity ring layout, DAG
// sharing) must never change what a run computes, so these digests are
// fixed: a mismatch means simulated behaviour changed, not just speed.
var identityPins = map[string]string{
	"gcm_n13/greedy/d5":            "abd5da9513a99e2b087f1fac655d7844f9683a5b6aaef5fdc8d2bc894cd6a8d6",
	"gcm_n13/greedy/d7":            "a404a68ef354be0694e7131ef235a1b61ce11d08cb719ea8bf222277b872bf6b",
	"gcm_n13/autobraid/d5":         "3d3c06fd110664197e34f4a44ffc3b099effca60d7b8e2697c2f98439ba1c0ea",
	"gcm_n13/autobraid/d7":         "48b89708e21598cb8e93e1959801f8046dcc9bb2e3a09f6b3cef26453afa56a8",
	"gcm_n13/rescq/d5":             "087da715759afc88fce635b2bb9470e1566c862a17a40df609de1c909829e32d",
	"gcm_n13/rescq/d7":             "5ad5630de52b2cd3c40574aef6934748a630bd733e2b21d393bbbc55e4bf6457",
	"qft_n29/greedy/d5":            "6bcea686585ce9bf1f8666ac896f889674298e0113dec35642ea0dc82080edff",
	"qft_n29/greedy/d7":            "8702902abcfe28b04b7dee273c2c3f3233e7099a8868d8513dabd282e3c650bb",
	"qft_n29/autobraid/d5":         "ade310c126c27c9079d0b1286ef9ca51f59618f0788cb341807ef40fd21e61ab",
	"qft_n29/autobraid/d7":         "ddba40ba38456392ff71524a7865091a56ef00c58fece721ee65049f37bbcd81",
	"qft_n29/rescq/d5":             "bc85f66e8657dcfa026273de59c85820525904b9f74278b864283e1babaa66d2",
	"qft_n29/rescq/d7":             "eceee50dda53893deea9fbb8cd761a14dd111ddc6c4b1ff049044c9f17a838fe",
	"dnn_n16/greedy/d5":            "1a080549cb132e21332b6c30751abfccd75a0295b33bf573ded3259b2cb9fc68",
	"dnn_n16/greedy/d7":            "4402aeb0f5a133dc2933480e002ede1b47ff9e4ab5902135ef2e6b0dc85002ce",
	"dnn_n16/autobraid/d5":         "2fea01e4ae31679cd9cb85cfb338fd20e0eb26069fa4b8239d03b5c91cbe55a5",
	"dnn_n16/autobraid/d7":         "4ec3ddb5a4226e265b70d5045ea77d3815b8a5667f7a137d3afdbe3119550969",
	"dnn_n16/rescq/d5":             "1be22b77291ae4ff437b6f9521bae53e7e067dbbd480ba6430491de211ce443b",
	"dnn_n16/rescq/d7":             "d9a25b86856a683ae5b09c5e93f30f916a4f7a31b39cd2973148764007f77243",
	"gcm_n13/greedy/d5/compact":    "c27575c0d49c7a08ae49d11a5c298a95029072ab0fd26da326c4753e5d9e2f9f",
	"gcm_n13/greedy/d5/c0.5":       "617641491bf600e9b319636ae3d988dc51382eacf0dc4d6b6d2455146e510b17",
	"gcm_n13/autobraid/d5/compact": "0e3d961f831d6ee7c9f93c326dff17e50692441c7cd80e0dd099534fe2c781c3",
	"gcm_n13/autobraid/d5/c0.5":    "b02693831da910a3eb211141376145ef8067681d5a0a1a5f74f4d36bfd124adc",
	"gcm_n13/rescq/d5/compact":     "b9cf5ecd4bd71bd8da2f92020ecf03feab340b01189489b9152bdb5759e3e464",
	"gcm_n13/rescq/d5/c0.5":        "48101efba1ab72a6434e58156283ef881388c2aa99be6f45ac4d14adef659850",
}

func TestSummaryIdentityPins(t *testing.T) {
	for _, c := range identityCases() {
		sum, err := Run(c.bench, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		body, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(body)
		got := hex.EncodeToString(h[:])
		if want := identityPins[c.name()]; got != want {
			t.Errorf("%s: summary digest %s, want %s", c.name(), got, want)
		}
	}
}
