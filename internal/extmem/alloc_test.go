package extmem

import (
	"path/filepath"
	"runtime"
	"testing"

	"asymsort/internal/seq"
)

// TestOneWorkerAllocBudget pins Config.Mem's single-arena promise on a
// one-worker engine: a k=1 sort of 900,000 records under M = 262,144
// (a 3,516-way merge) allocates less than 1.5·M records in total —
// one M-record arena shared by formation and the merge carve, plus
// the metadata and chunk slack outside the budget. A second arena, a
// per-flush allocation, or a per-record allocation in the merge loop
// would each push it past the bound.
func TestOneWorkerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	const n, mem, block = 900_000, 262_144, 64
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	if err := WriteRecordsFile(inPath, seq.Uniform(n, 1)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mem: mem, Block: block, K: 1, Procs: 1, TmpDir: dir}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := Sort(cfg, inPath, filepath.Join(dir, "out.bin"))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Levels != 1 || rep.Total.Writes != rep.PlanWrites {
		t.Fatalf("unexpected plan: %d levels, writes %d vs plan %d", rep.Levels, rep.Total.Writes, rep.PlanWrites)
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / float64(mem*RecordBytes)
	t.Logf("allocated %.2f·M·RecordBytes over %d runs", got, rep.Runs)
	if got >= 1.5 {
		t.Fatalf("one-worker sort allocated %.2f·M·RecordBytes, budget 1.5", got)
	}
}
