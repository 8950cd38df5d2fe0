package extmem

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"asymsort/internal/core/aemsort"
	"asymsort/internal/seq"
)

// paperPlan builds the merge tree AEM-MERGESORT itself recurses over:
// every node of n > kM records cut by aemsort.Partition at l = kM/B,
// leaf parents included. It is the reference the narrowed plan is
// checked against.
func paperPlan(n, mem, block, k int) *Plan {
	p := &Plan{N: n, Mem: mem, Block: block, K: k, FanIn: max(2, k*mem/block)}
	var build func(lo, hi int) *planNode
	build = func(lo, hi int) *planNode {
		if hi-lo <= k*mem {
			p.runs++
			return &planNode{lo: lo, hi: hi}
		}
		bounds := aemsort.Partition(hi-lo, block, p.FanIn)
		kids := make([]*planNode, len(bounds)-1)
		p.width = max(p.width, len(kids))
		for i := range kids {
			kids[i] = build(lo+bounds[i], lo+bounds[i+1])
		}
		return &planNode{lo: lo, hi: hi, kids: kids}
	}
	if n > 0 {
		p.root = build(0, n)
		p.levels = p.assignLevels(p.root)
	}
	return p
}

// passes is the selection-pass count of a leaf of n records under M.
func passes(n, mem int) int { return (n + mem - 1) / mem }

// checkNarrowed walks the narrowed tree against the paper tree. Both
// must agree node for node, except that a paper node whose children
// are all leaves may be re-cut: into contiguous leaves, all but the
// last whole blocks, none needing more selection passes than the
// paper's largest leaf there, and exactly as many as that pass budget
// requires — the fewest that fit.
func checkNarrowed(t *testing.T, nar, pap *planNode, mem, block int) {
	t.Helper()
	if nar.lo != pap.lo || nar.hi != pap.hi || nar.leaf() != pap.leaf() || nar.level != pap.level {
		t.Fatalf("node [%d,%d) leaf=%v level %d, paper [%d,%d) leaf=%v level %d",
			nar.lo, nar.hi, nar.leaf(), nar.level, pap.lo, pap.hi, pap.leaf(), pap.level)
	}
	if pap.leaf() {
		return
	}
	leafParent := true
	budget := 0
	for _, kid := range pap.kids {
		leafParent = leafParent && kid.leaf()
		budget = max(budget, passes(kid.len(), mem))
	}
	if !leafParent {
		if len(nar.kids) != len(pap.kids) {
			t.Fatalf("node [%d,%d): %d children, paper %d (only leaf parents may be re-cut)",
				nar.lo, nar.hi, len(nar.kids), len(pap.kids))
		}
		for i := range nar.kids {
			checkNarrowed(t, nar.kids[i], pap.kids[i], mem, block)
		}
		return
	}
	capacity := budget * mem
	if want := (nar.len() + capacity - 1) / capacity; len(nar.kids) != want {
		t.Fatalf("leaf parent [%d,%d): %d children, the %d-pass budget fits %d",
			nar.lo, nar.hi, len(nar.kids), budget, want)
	}
	at := nar.lo
	for i, kid := range nar.kids {
		if !kid.leaf() || kid.lo != at || kid.len() == 0 {
			t.Fatalf("leaf parent [%d,%d): child %d [%d,%d) is not the next leaf", nar.lo, nar.hi, i, kid.lo, kid.hi)
		}
		if i < len(nar.kids)-1 && kid.len()%block != 0 {
			t.Fatalf("leaf parent [%d,%d): child %d has %d records, not whole blocks", nar.lo, nar.hi, i, kid.len())
		}
		if p := passes(kid.len(), mem); p > budget {
			t.Fatalf("leaf parent [%d,%d): child %d needs %d passes, paper leaves %d", nar.lo, nar.hi, i, p, budget)
		}
		at = kid.hi
	}
	if at != nar.hi {
		t.Fatalf("leaf parent [%d,%d): children end at %d", nar.lo, nar.hi, at)
	}
}

// checkPlanAgainstPaper asserts the narrowed plan keeps the paper
// plan's levels and per-level writes, never widens, and re-cuts only
// leaf parents.
func checkPlanAgainstPaper(t *testing.T, n, mem, block, k int) *Plan {
	t.Helper()
	nar, pap := NewPlan(n, mem, block, k, 0), paperPlan(n, mem, block, k)
	if nar.Levels() != pap.Levels() {
		t.Fatalf("n=%d M=%d B=%d k=%d: %d levels, paper %d", n, mem, block, k, nar.Levels(), pap.Levels())
	}
	nw, pw := nar.LevelWrites(), pap.LevelWrites()
	for lvl := range pw {
		if nw[lvl] != pw[lvl] {
			t.Fatalf("n=%d M=%d B=%d k=%d level %d: %d block writes, paper %d", n, mem, block, k, lvl, nw[lvl], pw[lvl])
		}
	}
	if nar.Runs() > pap.Runs() || nar.Width() > pap.Width() || nar.Width() > nar.FanIn {
		t.Fatalf("n=%d M=%d B=%d k=%d: %d runs / width %d, paper %d / %d, bound %d",
			n, mem, block, k, nar.Runs(), nar.Width(), pap.Runs(), pap.Width(), nar.FanIn)
	}
	if (nar.Width() == 0) != (nar.Levels() == 0) {
		t.Fatalf("n=%d M=%d B=%d k=%d: width %d with %d levels", n, mem, block, k, nar.Width(), nar.Levels())
	}
	if n > 0 {
		checkNarrowed(t, nar.root, pap.root, mem, block)
	}
	return nar
}

// TestNarrowPlanSweep checks the leaf-parent rule over a grid of
// (n, M, B, k): one- and many-record blocks, M = B, ragged sizes, and
// trees from one leaf to several levels deep. At k = 1 every leaf
// parent must take exactly ⌈n/M⌉ runs.
func TestNarrowPlanSweep(t *testing.T) {
	for _, block := range []int{1, 4, 16} {
		for _, mb := range []int{1, 2, 3, 8, 13} {
			mem := mb * block
			for k := 1; k <= 4; k++ {
				for _, n := range []int{0, 1, mem, k*mem + 1, 3*k*mem - 1, 65 * block, 1040, 4097, 9999} {
					p := checkPlanAgainstPaper(t, n, mem, block, k)
					if k == 1 && p.Levels() == 1 && p.Runs() != passes(n, mem) {
						t.Fatalf("n=%d M=%d B=%d k=1: %d runs, want ⌈n/M⌉ = %d", n, mem, block, p.Runs(), passes(n, mem))
					}
				}
			}
		}
	}
}

// TestNarrowPlanEngine runs the engine on narrowed plans of every
// shape — single merge, ragged and deep trees, multi-pass k ≥ 2
// leaves — at P ∈ {1, 2, 4}: the measured per-level writes must equal
// the paper plan's, the report must carry the plan's width, and the
// output bytes must be identical at every P.
func TestNarrowPlanEngine(t *testing.T) {
	cases := []struct{ n, mem, block, k int }{
		{100, 64, 16, 1},
		{1040, 128, 16, 1},
		{4097, 64, 16, 1},
		{8192, 64, 16, 1},
		{60000, 1024, 8, 1},
		{5000, 128, 16, 2},
		{5000, 128, 16, 3},
		{12345, 256, 16, 3},
		{20000, 256, 32, 4},
		{3001, 12, 4, 2},
		{777, 5, 1, 3},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d/M=%d/B=%d/k=%d", tc.n, tc.mem, tc.block, tc.k), func(t *testing.T) {
			plan := checkPlanAgainstPaper(t, tc.n, tc.mem, tc.block, tc.k)
			paper := paperPlan(tc.n, tc.mem, tc.block, tc.k).LevelWrites()
			in := seq.Uniform(tc.n, uint64(tc.n))
			dir := t.TempDir()
			inPath := filepath.Join(dir, "in.bin")
			if err := WriteRecordsFile(inPath, in); err != nil {
				t.Fatal(err)
			}
			var first []byte
			for _, procs := range []int{1, 2, 4} {
				outPath := filepath.Join(dir, fmt.Sprintf("out%d.bin", procs))
				rep, err := Sort(Config{Mem: tc.mem, Block: tc.block, K: tc.k, Procs: procs, TmpDir: dir}, inPath, outPath)
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if rep.Width != plan.Width() || rep.Runs != plan.Runs() {
					t.Errorf("procs=%d: report width %d, runs %d; plan %d, %d", procs, rep.Width, rep.Runs, plan.Width(), plan.Runs())
				}
				if len(rep.LevelIO) != len(paper) {
					t.Fatalf("procs=%d: %d measured levels, paper plan %d", procs, len(rep.LevelIO), len(paper))
				}
				for lvl, w := range paper {
					if rep.LevelIO[lvl].Writes != w {
						t.Errorf("procs=%d level %d: measured %d block writes, paper plan %d", procs, lvl, rep.LevelIO[lvl].Writes, w)
					}
				}
				raw, err := os.ReadFile(outPath)
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = raw
					got, err := ReadRecordsFile(outPath)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != tc.n || !seq.IsSorted(got) || !seq.IsPermutation(got, in) {
						t.Fatalf("procs=%d: output is not the sorted input", procs)
					}
				} else if !bytes.Equal(raw, first) {
					t.Fatalf("procs=%d: output bytes differ from procs=1", procs)
				}
			}
		})
	}
}
