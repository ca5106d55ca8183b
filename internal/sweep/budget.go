package sweep

import (
	"runtime"
	"sync"
)

// The shared worker budget is a process-wide token pool that caps the
// TOTAL number of extra worker goroutines across nested parallel layers —
// grid sweeps (Map, which can nest: an experiment cell may evaluate
// episodes through another Map) and the nn trainer's row blocks, which
// lazy monitor training runs inside sweep cells. Without it the layers
// multiply: P concurrent sweep cells each training with P workers spawn up
// to P² goroutines. With it, a layer asks for tokens before spawning and
// degrades to fewer workers (or fully serial execution) when the pool is
// drained, so a machine runs at most ~budget workers no matter how the
// layers nest. Matrix products never fan out; they run on whichever
// goroutine holds the work.
//
// Acquisition is non-blocking — a layer that gets no tokens runs inline
// on its calling goroutine — so nested acquires can never deadlock, and
// results remain byte-identical at every budget (each unit of work is
// computed identically regardless of which goroutine runs it).
var budget struct {
	mu  sync.Mutex
	cap int // 0 selects runtime.GOMAXPROCS(0)
	out int // tokens currently held
}

// SetBudget sets the shared worker budget. n <= 0 restores the default
// (runtime.GOMAXPROCS(0)). Lowering the budget below the tokens currently
// held only affects future acquisitions.
func SetBudget(n int) {
	if n < 0 {
		n = 0
	}
	budget.mu.Lock()
	budget.cap = n
	budget.mu.Unlock()
}

// BudgetCap returns the resolved budget capacity.
func BudgetCap() int {
	budget.mu.Lock()
	defer budget.mu.Unlock()
	return budgetCapLocked()
}

func budgetCapLocked() int {
	if budget.cap > 0 {
		return budget.cap
	}
	return runtime.GOMAXPROCS(0)
}

// AcquireWorkers requests up to n extra-worker tokens and returns how many
// were granted (possibly 0). It never blocks. The caller must pass the
// grant to ReleaseWorkers when its workers exit.
func AcquireWorkers(n int) int {
	if n <= 0 {
		return 0
	}
	budget.mu.Lock()
	defer budget.mu.Unlock()
	free := budgetCapLocked() - budget.out
	if free <= 0 {
		return 0
	}
	if n > free {
		n = free
	}
	budget.out += n
	return n
}

// ReleaseWorkers returns tokens granted by AcquireWorkers to the pool.
func ReleaseWorkers(n int) {
	if n <= 0 {
		return
	}
	budget.mu.Lock()
	budget.out -= n
	if budget.out < 0 {
		budget.out = 0
	}
	budget.mu.Unlock()
}
