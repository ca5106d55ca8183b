package experiments

import (
	"testing"
)

// renderAll runs the experiments whose sweeps exercise every executor path
// (level grids, pair grids, raw sweep.Map cells, FGSM model clones, lazy
// monitor training) and concatenates their rendered tables.
func renderAll(t *testing.T, a *Assets) string {
	t.Helper()
	out := ""
	t3, err := Table3(a)
	if err != nil {
		t.Fatal(err)
	}
	out += t3.Render()
	f5, err := Fig5(a)
	if err != nil {
		t.Fatal(err)
	}
	out += f5.Render()
	f9, err := Fig9Both(a)
	if err != nil {
		t.Fatal(err)
	}
	out += f9.Render()
	ev, err := Evasion(a)
	if err != nil {
		t.Fatal(err)
	}
	out += ev.Render()
	return out
}

// TestSweepDeterminism is the acceptance test of the parallel executor: with
// a fixed config seed, rendered output must be byte-identical between one
// worker and many, because per-cell seeds derive from (seed, cell index) and
// results are slotted by index. The attack surfaces are rebuilt at every
// worker count, so no arm compares against gradients computed at another.
func TestSweepDeterminism(t *testing.T) {
	a := benchAssets(t)
	defer SetWorkers(0)
	defer resetAttackSurfaces(a)

	SetWorkers(1)
	resetAttackSurfaces(a)
	serial := renderAll(t, a)
	for _, workers := range []int{4, 13} {
		SetWorkers(workers)
		resetAttackSurfaces(a)
		if par := renderAll(t, a); par != serial {
			t.Fatalf("workers=%d: rendered output differs from serial run", workers)
		}
	}
}

// TestLazyMonitorCacheSharesOneInstance checks the per-key memoization: two
// requests (including concurrent ones inside a sweep) must see the same
// trained monitor.
func TestLazyMonitorCacheSharesOneInstance(t *testing.T) {
	a := benchAssets(t)
	sa := a.Sims[Simulators[0]]
	m1, err := sa.Monitor("mlp")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sa.Monitor("mlp")
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("Monitor must memoize: got two instances for one key")
	}
}

func TestValidateRegistry(t *testing.T) {
	if err := ValidateRegistry(); err != nil {
		t.Fatal(err)
	}
	// A registered experiment missing from the order must be flagged …
	Registry["zz_test_only"] = Registry["table3"]
	defer delete(Registry, "zz_test_only")
	if err := ValidateRegistry(); err == nil {
		t.Fatal("want error for unordered registry entry")
	}
	// … while ExperimentIDs still lists it (deterministically, at the end).
	ids := ExperimentIDs()
	if ids[len(ids)-1] != "zz_test_only" {
		t.Fatalf("unknown id not sorted last: %v", ids)
	}
}
