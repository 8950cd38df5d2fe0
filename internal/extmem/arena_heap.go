//go:build !linux || race

package extmem

import "asymsort/internal/seq"

// allocRecords returns n zeroed records on the Go heap, which needs no
// release function; see arena_mmap.go for the mapped variant.
func allocRecords(n int) ([]seq.Record, func()) {
	return make([]seq.Record, n), nil
}
