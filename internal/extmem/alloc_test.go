package extmem

import (
	"path/filepath"
	"runtime"
	"testing"

	"asymsort/internal/seq"
)

// allocated sorts inPath under cfg and returns the report with every
// byte the sort allocated — on the heap, plus the arenas it mapped
// outside it — in units of M records.
func allocated(t *testing.T, cfg Config, inPath, outPath string) (*Report, float64) {
	t.Helper()
	e := new(engine)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := e.sort(cfg, inPath, outPath)
	runtime.ReadMemStats(&after)
	e.releaseArenas()
	if err != nil {
		t.Fatal(err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc + uint64(e.mapped*RecordBytes)
	return rep, float64(bytes) / float64(cfg.Mem*RecordBytes)
}

// TestOneWorkerAllocBudget pins Config.Mem's single-arena promise on a
// one-worker engine: a k=1 sort of 900,000 records under M = 262,144
// (4 runs, one 4-way merge) allocates less than 1.5·M records in total —
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
	rep, got := allocated(t, cfg, inPath, filepath.Join(dir, "out.bin"))
	if rep.Levels != 1 || rep.Total.Writes != rep.PlanWrites {
		t.Fatalf("unexpected plan: %d levels, writes %d vs plan %d", rep.Levels, rep.Total.Writes, rep.PlanWrites)
	}
	t.Logf("allocated %.2f·M·RecordBytes over %d runs", got, rep.Runs)
	if got >= 1.5 {
		t.Fatalf("one-worker sort allocated %.2f·M·RecordBytes, budget 1.5", got)
	}
}

// TestTwoWorkerAllocBudget pins the parallel engine's per-worker arenas
// on a narrow plan: a k=1 sort of 900,000 records under M = 262,144 at
// P=2 forms 4 runs of ~M records and merges them 4 ways. Formation
// circulates two M-record candidate buffers, sorted in place, and each
// of the two merge workers carves its 4 run shares and 2 write-behind
// buffers out of the same arena, so the whole sort allocates about
// 2·M plus the cut indexes. A per-leaf sort scratch, or a merge carve
// that overflows its arena (both arenas re-allocated), each push it
// past the bound.
func TestTwoWorkerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under -race")
	}
	const n, mem, block = 900_000, 262_144, 64
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	if err := WriteRecordsFile(inPath, seq.Uniform(n, 1)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mem: mem, Block: block, K: 1, Procs: 2, TmpDir: dir}
	rep, got := allocated(t, cfg, inPath, filepath.Join(dir, "out.bin"))
	if rep.Levels != 1 || rep.Width != 4 || rep.Total.Writes != rep.PlanWrites {
		t.Fatalf("unexpected plan: %d levels, width %d, writes %d vs plan %d",
			rep.Levels, rep.Width, rep.Total.Writes, rep.PlanWrites)
	}
	t.Logf("allocated %.2f·M·RecordBytes over %d runs", got, rep.Runs)
	if got >= 2.5 {
		t.Fatalf("two-worker sort allocated %.2f·M·RecordBytes, budget 2.5", got)
	}
}
