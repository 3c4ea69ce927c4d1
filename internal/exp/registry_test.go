package exp

import "testing"

// TestExperimentsUnique pins the one property the ordered registry
// cannot enforce by construction: every identifier appears once and
// carries a title, so -list and GET /experiments name each experiment
// exactly once.
func TestExperimentsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] {
			t.Errorf("experiment %q registered twice", e.id)
		}
		seen[e.id] = true
		if e.title == "" {
			t.Errorf("experiment %q has no title", e.id)
		}
	}
}
