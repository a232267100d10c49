package spmv

// HasLazyCSR reports whether o has built the CSR copy its CSR hooks
// (Multi, MultiTraffic, Traffic's parallel fallback) stream.
func HasLazyCSR(o *Operator) bool {
	o.multiMu.Lock()
	defer o.multiMu.Unlock()
	return o.lazyCSR != nil
}
