package experiments

import (
	"strings"
	"testing"
)

// TestCertifyPolicyStudy smoke-runs PERF5: every policy row renders and
// the certification gate completes every trial under both victim
// policies.
func TestCertifyPolicyStudy(t *testing.T) {
	tab, err := CertifyPolicyStudy(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 policies", len(tab.Rows))
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	for _, opt := range []string{"certify-optimistic/youngest", "certify-optimistic/fewest-ops"} {
		r, ok := byName[opt]
		if !ok {
			t.Fatalf("missing row %q", opt)
		}
		if r[1] != "20/20" || r[2] != "0" {
			t.Fatalf("%s: completed %s stalled %s, want 20/20 and 0", opt, r[1], r[2])
		}
	}
	if !strings.Contains(tab.Render(), "PERF5") {
		t.Fatal("table title missing")
	}
}
