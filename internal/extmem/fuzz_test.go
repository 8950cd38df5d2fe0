package extmem

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"asymsort/internal/seq"
)

// fuzzWorkload generates n records of the given shape. Every shape
// produces unique (Key, Val) pairs, as the multi-pass selection
// watermark requires (all generators embed the index in the payload).
func fuzzWorkload(shape, n int, seed uint64) []seq.Record {
	switch shape % 5 {
	case 1:
		return seq.Sorted(n)
	case 2:
		return seq.Reversed(n)
	case 3:
		return seq.FewDistinct(n, 7, seed) // duplicate-key-heavy
	case 4:
		return seq.FewDistinct(n, 1, seed) // all keys equal
	default:
		return seq.Uniform(n, seed)
	}
}

// FuzzExtSort is the differential fuzz layer over the whole engine:
// a random (n, M, B, k, P, key-shape) configuration drives extmem.Sort
// and the result is compared against two independent oracles — the
// in-memory slices.SortFunc reference for the output records, and the
// simulated AEM machine's write ledger (via the shared merge-tree
// plan, which internal/integration pins to the aemsort simulator) for
// the per-level block-write counts. The spill directory must come back
// empty on every configuration.
//
// A post selector wires a dedup-by-key Streamer into Config.Post for
// odd values; the reference is then the same fold over the sorted
// slice, and measured writes must still equal Report.PlanWrites.
//
// Seed corpus: the shapes of internal/integration/extmem_test.go —
// single-run, one-merge, the ragged-depth tree, deep-classic,
// multi-pass k ∈ {2,3,4}, and the tail-record case — at both engine
// widths, plus streamed single-leaf and merged roots and a k ≥ 2 leaf
// parent narrowed to multi-pass leaves.
func FuzzExtSort(f *testing.F) {
	f.Add(uint16(100), uint16(256), uint8(16), uint8(1), uint8(1), uint8(0), uint64(100), uint8(0))
	f.Add(uint16(2048), uint16(256), uint8(16), uint8(1), uint8(4), uint8(0), uint64(2048), uint8(0))
	f.Add(uint16(1040), uint16(128), uint8(16), uint8(1), uint8(1), uint8(1), uint64(1040), uint8(0))
	f.Add(uint16(8192), uint16(64), uint8(16), uint8(1), uint8(4), uint8(2), uint64(8192), uint8(0))
	f.Add(uint16(5000), uint16(128), uint8(16), uint8(2), uint8(1), uint8(3), uint64(5000), uint8(0))
	f.Add(uint16(12345), uint16(256), uint8(16), uint8(3), uint8(4), uint8(4), uint64(12345), uint8(0))
	f.Add(uint16(4097), uint16(64), uint8(16), uint8(1), uint8(2), uint8(0), uint64(4097), uint8(0))
	f.Add(uint16(0), uint16(64), uint8(16), uint8(1), uint8(1), uint8(0), uint64(1), uint8(0))
	// Streamed roots under a dedup-by-key post-pass: a single-leaf root
	// (n ≤ kM, selection passes fold straight into the output) and a
	// merged root, each on one worker and on four.
	f.Add(uint16(900), uint16(256), uint8(16), uint8(3), uint8(0), uint8(3), uint64(900), uint8(1))
	f.Add(uint16(900), uint16(256), uint8(16), uint8(3), uint8(3), uint8(3), uint64(900), uint8(1))
	f.Add(uint16(5000), uint16(128), uint8(16), uint8(1), uint8(0), uint8(3), uint64(5000), uint8(1))
	f.Add(uint16(5000), uint16(128), uint8(16), uint8(1), uint8(3), uint8(3), uint64(5000), uint8(1))
	// A k=3 leaf parent at the root: the paper cut's 23 leaves of 224
	// records re-cut into 20 two-pass leaves of ≤ 256, merged on P=2.
	f.Add(uint16(5000), uint16(128), uint8(15), uint8(2), uint8(1), uint8(0), uint64(5000), uint8(0))

	f.Fuzz(func(t *testing.T, n, mem uint16, block, k, procs, shape uint8, seed uint64, post uint8) {
		// Clamp the raw fuzz bytes into the engine's valid domain while
		// keeping every interesting boundary reachable: one-record
		// blocks, M = B, k up to 4 (multi-pass selection), P up to 4.
		B := int(block)%128 + 1
		M := int(mem)
		if M < B {
			M = B
		}
		K := int(k)%4 + 1
		P := int(procs)%4 + 1
		N := int(n) % 16384
		in := fuzzWorkload(int(shape), N, seed)

		dir := t.TempDir()
		inPath := filepath.Join(dir, "in.bin")
		outPath := filepath.Join(dir, "out.bin")
		spill := filepath.Join(dir, "spill")
		if err := WriteRecordsFile(inPath, in); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(spill, 0o755); err != nil {
			t.Fatal(err)
		}
		cfg := Config{Mem: M, Block: B, K: K, Procs: P, TmpDir: spill}
		streamed := post%2 == 1
		if streamed {
			cfg.Post = &dedupByKey{}
		}
		rep, err := Sort(cfg, inPath, outPath)
		if err != nil {
			t.Fatalf("Sort(n=%d M=%d B=%d k=%d P=%d shape=%d post=%v): %v", N, M, B, K, P, shape%5, streamed, err)
		}
		left, err := os.ReadDir(spill)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("spill dir not cleaned: %d files remain", len(left))
		}

		// Differential output check against the in-memory reference.
		got, err := ReadRecordsFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(in)
		slices.SortFunc(want, seq.TotalCompare)
		if streamed {
			want = dedupRef(want)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d M=%d B=%d k=%d P=%d shape=%d post=%v: output diverges from slices.Sort reference",
				N, M, B, K, P, shape%5, streamed)
		}
		if rep.Total.Writes != rep.PlanWrites {
			t.Fatalf("measured writes %d, plan %d", rep.Total.Writes, rep.PlanWrites)
		}
		// Differential ledger check against the simulated AEM plan,
		// level for level (rep.Mem is the budget after block rounding —
		// the value the executed plan was built with).
		plan := NewPlan(N, rep.Mem, B, K, 0)
		planLevels := plan.LevelWrites()
		if len(rep.LevelIO) != len(planLevels) {
			t.Fatalf("engine reports %d levels, plan %d", len(rep.LevelIO), len(planLevels))
		}
		for lvl, w := range planLevels {
			if streamed && lvl == len(planLevels)-1 {
				break // a streamed root writes only the emitted records
			}
			if rep.LevelIO[lvl].Writes != w {
				t.Fatalf("level %d: engine wrote %d blocks, simulated plan predicts %d (n=%d M=%d B=%d k=%d P=%d)",
					lvl, rep.LevelIO[lvl].Writes, w, N, rep.Mem, B, K, P)
			}
		}
		if !streamed && rep.PlanWrites != plan.TotalWrites() {
			t.Fatalf("total writes %d, report plan %d, recomputed plan %d",
				rep.Total.Writes, rep.PlanWrites, plan.TotalWrites())
		}
	})
}
