package workloads

// Fresh builds every workload straight from its constructor, bypassing the
// registry: what ByName and All must keep returning whatever earlier callers
// did to the values they were handed.
func Fresh() []Workload {
	return []Workload{
		bfs(), mum(), nw(), spmv(), km(),
		lud(), srad(), pa(), histo(), bp(),
		pf(), cs(), st(), hs(), sp(),
	}
}
