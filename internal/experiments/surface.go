package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/attack"
	"repro/internal/mat"
	"repro/internal/monitor"
)

// AttackSurface is one ML monitor's white-box attack surface on its
// simulator's test split: the clean input matrix, the FGSM input gradient
// taken there with the true labels, and the clean predicted classes. The
// gradient does not depend on ε, so every FGSM budget of Figs 2, 8 and 9
// and the evasion sweep is one sign step from it. X and Grad are read-only:
// sweep cells share them concurrently.
type AttackSurface struct {
	Monitor *monitor.MLMonitor
	// X is the normalized test input matrix.
	X *mat.Matrix
	// Grad is ∇ₓJ(X, TestLabels()), computed on a private model clone.
	Grad *mat.Matrix

	mu    sync.Mutex
	clean map[string]*predEntry // keyed by inference precision
}

// predEntry memoizes one precision's clean predictions.
type predEntry struct {
	once sync.Once
	pred []int
	err  error
}

// surfaceEntry is one lazily built attack-surface slot, the Monitor slot
// pattern: one build per (simulator, monitor) key however many sweep cells
// ask for it concurrently.
type surfaceEntry struct {
	once sync.Once
	s    *AttackSurface
	err  error
}

// targetGradients counts input-gradient passes through an attacked
// monitor's own model; tests read it to pin one pass per surface.
var targetGradients atomic.Int64

// targetGradient returns ∇ₓJ(x, labels) of m's model. The gradient pass
// records backward state on the model, so it runs on a private clone —
// which is what lets parallel sweep cells share one trained monitor.
func targetGradient(m *monitor.MLMonitor, x *mat.Matrix, labels []int) (*mat.Matrix, error) {
	model, err := m.Model().Clone()
	if err != nil {
		return nil, err
	}
	targetGradients.Add(1)
	grad, err := model.InputGradient(x, labels, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s input gradient: %w", m.Name(), err)
	}
	return grad, nil
}

// AttackSurface returns the named ML monitor's attack surface, building it
// on first use (resolving the monitor on the way). Concurrent callers for
// the same name share a single build.
func (s *SimAssets) AttackSurface(name string) (*AttackSurface, error) {
	s.mu.Lock()
	e, ok := s.surfaces[name]
	if !ok {
		e = &surfaceEntry{}
		s.surfaces[name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.s, e.err = s.buildSurface(name) })
	return e.s, e.err
}

func (s *SimAssets) buildSurface(name string) (*AttackSurface, error) {
	m, err := s.MLMonitor(name)
	if err != nil {
		return nil, err
	}
	x, err := m.InputMatrix(s.Test.Samples)
	if err != nil {
		return nil, err
	}
	grad, err := targetGradient(m, x, s.TestLabels())
	if err != nil {
		return nil, err
	}
	return &AttackSurface{Monitor: m, X: x, Grad: grad, clean: map[string]*predEntry{}}, nil
}

// CleanPred returns the monitor's predicted classes on X under the
// configured precision, computed once per precision. Callers must treat the
// slice as read-only.
func (a *AttackSurface) CleanPred() ([]int, error) {
	p := Precision()
	a.mu.Lock()
	e, ok := a.clean[p]
	if !ok {
		e = &predEntry{}
		a.clean[p] = e
	}
	a.mu.Unlock()
	e.once.Do(func() { e.pred, e.err = predictMatrix(a.Monitor, a.X, p) })
	return e.pred, e.err
}

// FGSM returns a fresh copy of X perturbed by the white-box FGSM step of
// budget eps — bit-identical to FGSMPerturbation(Monitor, TestLabels(),
// eps)(X).
func (a *AttackSurface) FGSM(eps float64) (*mat.Matrix, error) {
	return attack.FGSMFromGradient(a.X, a.Grad, eps)
}

// FGSMPred returns the monitor's predicted classes, under the configured
// precision, on the FGSM-perturbed X of budget eps.
func (a *AttackSurface) FGSMPred(eps float64) ([]int, error) {
	adv, err := a.FGSM(eps)
	if err != nil {
		return nil, err
	}
	return PredictMatrixClasses(a.Monitor, adv)
}
