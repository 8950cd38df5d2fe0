// Package aemsort implements Section 4.1 of the paper: AEM-MERGESORT
// (Algorithm 2), the l-way external mergesort with branching factor
// l = kM/B that trades a factor k = O(ω) extra reads for a shallower
// recursion and hence fewer writes, together with the Lemma 4.2 selection
// sort used as its base case. Setting k = 1 recovers the classical EM
// mergesort, which is the baseline in experiments E3/E4.
//
// Bounds (Theorem 4.3): R(n) ≤ (k+1)⌈n/B⌉⌈log_{kM/B}(n/B)⌉ block reads and
// W(n) ≤ ⌈n/B⌉⌈log_{kM/B}(n/B)⌉ block writes.
//
// One deviation from the paper's pseudocode, documented in DESIGN.md §7:
// Algorithm 2 filters phase-2 insertions only by "e.key < Q.max" with
// Q.max = +∞ when Q is not full. Taken literally this lets a round output
// records larger than a record rejected earlier in the same round (reject
// r while Q is full; Q later drains below M; a newly loaded block inserts
// and emits v > r), producing unsorted output. We therefore maintain the
// round's ceiling — the minimum record rejected or ejected this round —
// and admit e only if e < ceiling as well. Every record the original
// filter admits below a full queue's max is still admitted, each round
// still outputs at least M records when available (everything resident in
// a full Q at the first rejection is below the ceiling), so Lemma 4.1's
// accounting is unchanged.
package aemsort

import (
	"fmt"

	"asymsort/internal/aem"
	"asymsort/internal/inmem"
	"asymsort/internal/seq"
)

// recLess is the strict total order on records (see seq.TotalLess).
func recLess(a, b seq.Record) bool { return seq.TotalLess(a, b) }

// SelectionSortFile sorts src into dst (same length) using the k-pass
// selection sort of Lemma 4.2: each pass scans the input keeping the M
// smallest records above the previous pass's watermark in memory, then
// writes them out in order. For n ≤ kM this costs at most ⌈n/M⌉·⌈n/B⌉ ≤
// k⌈n/B⌉ reads and ⌈n/B⌉ writes, with primary memory M + B.
func SelectionSortFile(ma *aem.Machine, src, dst *aem.File) {
	n := src.Len()
	if dst.Len() != n {
		panic("aemsort: SelectionSortFile length mismatch")
	}
	if n == 0 {
		return
	}
	m, b := ma.M(), ma.B()
	if m%b != 0 {
		panic("aemsort: M must be a multiple of B")
	}
	bufM := ma.Alloc(m)
	bufB := ma.Alloc(b)
	defer bufM.Free()
	defer bufB.Free()

	// The in-memory candidate set lives in the bufM reservation; the treap
	// is its (free) access structure.
	q := inmem.NewTreap(recLess, m)
	var last seq.Record
	haveLast := false
	outOff := 0
	for outOff < n {
		q.Clear()
		for blk := 0; blk < src.Blocks(); blk++ {
			cnt := src.ReadBlock(blk, bufB, 0)
			for i := 0; i < cnt; i++ {
				r := bufB.Get(i)
				if haveLast && !recLess(last, r) {
					continue // already written in an earlier pass
				}
				if q.Len() < m {
					q.Insert(r)
				} else if mx, _ := q.Max(); recLess(r, mx) {
					q.DeleteMax()
					q.Insert(r)
				}
			}
		}
		cnt := q.Len()
		if cnt == 0 {
			panic("aemsort: selection pass found no records (ledger bug)")
		}
		i := 0
		q.Ascend(func(r seq.Record) bool {
			bufM.Set(i, r)
			i++
			return true
		})
		dst.WriteRange(outOff, cnt, bufM, 0)
		last = bufM.Get(cnt - 1)
		haveLast = true
		outOff += cnt
	}
}

// Options configures MergeSortOpt.
type Options struct {
	// ExternalPointers keeps the run-pointer array I₁..I_l in secondary
	// memory instead of primary (the paper's remark after Lemma 4.1):
	// each pointer increment then reads and rewrites the pointer block,
	// roughly doubling the writes while barely increasing reads. Useful
	// when primary memory cannot spare the 2αkM/B pointer words.
	ExternalPointers bool
}

// MergeSort sorts in into a fresh file with AEM-MERGESORT (Algorithm 2)
// using branching factor l = kM/B and base case n ≤ kM. k = 1 is the
// classical EM mergesort. The machine needs slack for one load and one
// store block beyond M (construct it with slackBlocks ≥ 2).
func MergeSort(ma *aem.Machine, in *aem.File, k int) *aem.File {
	return MergeSortOpt(ma, in, k, Options{})
}

// MergeSortOpt is MergeSort with explicit Options.
func MergeSortOpt(ma *aem.Machine, in *aem.File, k int, opt Options) *aem.File {
	if k < 1 {
		panic("aemsort: k must be >= 1")
	}
	if ma.M()%ma.B() != 0 {
		panic("aemsort: M must be a multiple of B")
	}
	return mergeSortRec(ma, in, k, opt)
}

func mergeSortRec(ma *aem.Machine, in *aem.File, k int, opt Options) *aem.File {
	n := in.Len()
	if n <= k*ma.M() {
		dst := ma.NewFile(n)
		SelectionSortFile(ma, in, dst)
		return dst
	}
	l := k * ma.M() / ma.B()
	if l < 2 {
		l = 2
	}
	bounds := Partition(n, ma.B(), l)
	runs := make([]*aem.File, 0, len(bounds)-1)
	for i := 1; i < len(bounds); i++ {
		runs = append(runs, mergeSortRec(ma, in.Slice(bounds[i-1], bounds[i]), k, opt))
	}
	if len(runs) == 1 {
		return runs[0]
	}
	return mergeRuns(ma, runs, n, opt)
}

// Partition is AEM-MERGESORT's split of an n-record node into at most
// l subarrays at block granularity: ⌈n/B⌉ blocks cut into groups of
// ⌈blocks/l⌉, the last group taking the ragged tail. It returns the
// child bounds relative to the node's start — child i covers
// [bounds[i], bounds[i+1]), bounds[0] = 0, and the last bound is n —
// so every child but the last is a whole number of blocks. The
// simulator and the disk engine's planner (extmem.NewPlan) both cut
// through this one function, which is what makes their merge trees
// coincide above the leaves, and hence their block-write ledgers level
// for level; the planner only re-cuts a node whose children are all
// leaves into fewer, larger leaves (see extmem/plan.go).
func Partition(n, block, l int) []int {
	blocks := (n + block - 1) / block
	per := (blocks + l - 1) / l
	bounds := make([]int, 1, (blocks+per-1)/per+1)
	for b0 := per; b0 < blocks; b0 += per {
		bounds = append(bounds, b0*block)
	}
	return append(bounds, n)
}

// entry is a queue element of the merge: the record, whether it is the
// last record of its block, and its source run.
type entry struct {
	rec  seq.Record
	last bool
	sub  int32
}

func entryLess(a, b entry) bool { return recLess(a.rec, b.rec) }

// mergeRuns implements one l-way merge of Algorithm 2 (the while loop of
// lines 5–15) with the round-ceiling correction described in the package
// comment.
func mergeRuns(ma *aem.Machine, runs []*aem.File, n int, opt Options) *aem.File {
	m, b := ma.M(), ma.B()
	out := ma.NewFile(n)
	bufQ := ma.Alloc(m) // arena reservation for the in-memory queue
	load := ma.Alloc(b)
	store := ma.Alloc(b)
	defer bufQ.Free()
	defer load.Free()
	defer store.Free()
	_ = bufQ // the treap below is the access structure over this reservation

	q := inmem.NewTreap(entryLess, m)
	ptr := make([]int, len(runs)) // I_1..I_l: current block per run

	var lastV seq.Record
	haveLast := false
	var ceiling seq.Record
	haveCeiling := false

	lowerCeiling := func(r seq.Record) {
		if !haveCeiling || recLess(r, ceiling) {
			ceiling, haveCeiling = r, true
		}
	}

	processBlock := func(i int) {
		if ptr[i] >= runs[i].Blocks() {
			return
		}
		cnt := runs[i].ReadBlock(ptr[i], load, 0)
		for j := 0; j < cnt; j++ {
			r := load.Get(j)
			if haveLast && !recLess(lastV, r) {
				continue // already output
			}
			if haveCeiling && !recLess(r, ceiling) {
				continue // above a record skipped this round; wait for next
			}
			e := entry{rec: r, last: j == cnt-1, sub: int32(i)}
			if q.Len() >= m {
				mx, _ := q.Max()
				if entryLess(e, mx) {
					q.DeleteMax()
					lowerCeiling(mx.rec)
					q.Insert(e)
				} else {
					lowerCeiling(r)
				}
			} else {
				q.Insert(e)
			}
		}
	}

	written := 0
	storeN := 0
	for written < n {
		// Phase 1: refill from every run's current block.
		haveCeiling = false
		for i := range runs {
			processBlock(i)
		}
		if q.Len() == 0 {
			panic(fmt.Sprintf("aemsort: merge stalled at %d/%d records", written, n))
		}
		// Phase 2: drain the queue, flushing full store blocks and
		// advancing run pointers at block boundaries.
		for q.Len() > 0 {
			e, _ := q.DeleteMin()
			store.Set(storeN, e.rec)
			storeN++
			written++
			lastV, haveLast = e.rec, true
			if storeN == b {
				out.WriteRange(written-storeN, storeN, store, 0)
				storeN = 0
			}
			if e.last {
				i := int(e.sub)
				ptr[i]++
				if opt.ExternalPointers {
					// The pointer array lives in secondary memory: read
					// its block, update I_i, write it back.
					ma.ChargeRead(1)
					ma.ChargeWrite(1)
				}
				processBlock(i)
			}
		}
	}
	if storeN > 0 {
		out.WriteRange(written-storeN, storeN, store, 0)
	}
	return out
}

// LogBase returns ⌈log_base(x)⌉ computed by integer multiplication: the
// smallest t ≥ 1 with base^t ≥ x. Used by the Theorem 4.3 bound formulas.
func LogBase(base, x int) int {
	if base < 2 {
		panic("aemsort: LogBase needs base >= 2")
	}
	if x <= 1 {
		return 1
	}
	t := 0
	v := 1
	for v < x {
		// Guard overflow: once v exceeds x/base, one more multiply ends it.
		if v > (1<<62)/base {
			return t + 1
		}
		v *= base
		t++
	}
	return t
}

// TheoreticalReads returns the Theorem 4.3 read bound
// (k+1)·⌈n/B⌉·⌈log_{kM/B}(n/B)⌉.
func TheoreticalReads(n, m, b, k int) uint64 {
	nb := (n + b - 1) / b
	levels := LogBase(k*m/b, nb)
	return uint64(k+1) * uint64(nb) * uint64(levels)
}

// TheoreticalWrites returns the Theorem 4.3 write bound
// ⌈n/B⌉·⌈log_{kM/B}(n/B)⌉.
func TheoreticalWrites(n, m, b, k int) uint64 {
	nb := (n + b - 1) / b
	levels := LogBase(k*m/b, nb)
	return uint64(nb) * uint64(levels)
}
