package mat

// SetParallelism once set how many goroutines the large matrix products fan
// out to.
//
// Deprecated: every product runs on its calling goroutine; the only
// parallel layer is internal/sweep (sweep.Map and the worker grants of the
// nn trainer). SetParallelism does nothing and remains so callers that set
// it keep building.
func SetParallelism(n int) {}
