package lint

import "testing"

func TestHostmathFixtures(t *testing.T) {
	Fixture(t, "repro/internal/nn", []*Analyzer{Hostmath}, "hostmath", "hmbad")
}

// TestHostmathPolicyExemptions pins the package policy: the same calls are
// legal outside the determinism-critical packages.
func TestHostmathPolicyExemptions(t *testing.T) {
	pkg, err := LoadFixture(testdataDir("hostmath", "hmbad"), "repro/internal/serve")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := RunPackage(pkg, []*Analyzer{Hostmath})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("hostmath flagged a policy-exempt package: %v", diags)
	}
}
