//go:build linux && !race

package extmem

import (
	"syscall"
	"unsafe"

	"asymsort/internal/seq"
)

// allocRecords maps n zeroed records outside the Go heap and returns
// them with the function that unmaps them. A worker arena is M records
// that live exactly as long as one Sort; on the heap, each job's arena
// would become garbage the collector paces against — a daemon running
// job after job then peaks at several arenas' worth of heap. Mapped,
// the memory goes back to the kernel the moment the sort ends. Records
// hold no pointers, so the collector need not see them. Race builds
// use the heap instead (arena_heap.go): the race detector only watches
// Go-managed memory. If the mapping fails, the arena falls back to the
// heap too (a nil release function).
func allocRecords(n int) ([]seq.Record, func()) {
	b, err := syscall.Mmap(-1, 0, n*RecordBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]seq.Record, n), nil
	}
	return unsafe.Slice((*seq.Record)(unsafe.Pointer(unsafe.SliceData(b))), n),
		func() { _ = syscall.Munmap(b) } // only fails for a range that is not mapped
}
