package experiments

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/mat"
)

// resetAttackSurfaces drops every memoized attack surface of a, so the next
// experiment run rebuilds them (at the current worker count).
func resetAttackSurfaces(a *Assets) {
	for _, sa := range a.Sims {
		sa.mu.Lock()
		sa.surfaces = make(map[string]*surfaceEntry, len(MLMonitorNames))
		sa.mu.Unlock()
	}
}

func sameBits(t *testing.T, what string, got, want *mat.Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, v := range want.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data()[i], v)
		}
	}
}

// TestAttackSurfaceMatchesPerturbation pins the memo against the per-call
// attack it replaces: for every simulator, ML monitor and FGSM budget, the
// one-gradient surface must produce the bits of a fresh FGSMPerturbation,
// and its memoized clean predictions must match PredictMatrixClasses at
// both precisions.
func TestAttackSurfaceMatchesPerturbation(t *testing.T) {
	a := benchAssets(t)
	defer func() {
		if err := SetPrecision(eval.PrecisionF64); err != nil {
			t.Fatal(err)
		}
	}()
	for _, simu := range Simulators {
		sa := a.Sims[simu]
		for _, name := range MLMonitorNames {
			surf, err := sa.AttackSurface(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sa.MLMonitor(name)
			if err != nil {
				t.Fatal(err)
			}
			x, err := m.InputMatrix(sa.Test.Samples)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "X", surf.X, x)
			for _, eps := range FGSMLevels {
				got, err := surf.FGSM(eps)
				if err != nil {
					t.Fatal(err)
				}
				want, err := FGSMPerturbation(m, sa.TestLabels(), eps)(x)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, simu.String()+"/"+name+" FGSM", got, want)
			}
			for _, p := range []string{eval.PrecisionF64, eval.PrecisionF32} {
				if err := SetPrecision(p); err != nil {
					t.Fatal(err)
				}
				got, err := surf.CleanPred()
				if err != nil {
					t.Fatal(err)
				}
				want, err := PredictMatrixClasses(m, x)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%v/%s: memoized %s clean predictions differ from PredictMatrixClasses", simu, name, p)
				}
			}
			if err := SetPrecision(eval.PrecisionF64); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAttackSurfaceSharedAcrossCallers checks the per-key memoization under
// concurrency (run it with -race): callers racing for one monitor's surface
// all get the same instance, built by a single gradient pass.
func TestAttackSurfaceSharedAcrossCallers(t *testing.T) {
	a := benchAssets(t)
	resetAttackSurfaces(a)
	defer resetAttackSurfaces(a)
	sa := a.Sims[Simulators[0]]
	if _, err := sa.MLMonitor("lstm"); err != nil {
		t.Fatal(err)
	}
	before := targetGradients.Load()
	const callers = 8
	got := make([]*AttackSurface, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = sa.AttackSurface("lstm")
			if errs[i] == nil {
				_, errs[i] = got[i].CleanPred()
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different surface", i)
		}
	}
	if n := targetGradients.Load() - before; n != 1 {
		t.Fatalf("%d gradient passes for one surface, want 1", n)
	}
}

// TestOneTargetGradientPerMonitor pins the point of the memo: Figs 2, 8
// and 9 and the evasion sweep together take exactly one target-model input
// gradient per (simulator, ML monitor), however many ε cells they run.
func TestOneTargetGradientPerMonitor(t *testing.T) {
	a := benchAssets(t)
	resetAttackSurfaces(a)
	defer resetAttackSurfaces(a)
	before := targetGradients.Load()
	if _, err := Fig2(a); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig8(a); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig9Both(a); err != nil {
		t.Fatal(err)
	}
	if _, err := Evasion(a); err != nil {
		t.Fatal(err)
	}
	want := int64(len(Simulators) * len(MLMonitorNames))
	if n := targetGradients.Load() - before; n != want {
		t.Fatalf("%d target gradient passes, want %d (one per simulator × ML monitor)", n, want)
	}
	for _, sa := range a.Sims {
		if len(sa.surfaces) != len(MLMonitorNames) {
			t.Fatalf("%v: %d surfaces built, want %d", sa.Sim, len(sa.surfaces), len(MLMonitorNames))
		}
	}
}
