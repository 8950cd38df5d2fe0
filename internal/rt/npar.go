package rt

import (
	"math/bits"
	"slices"

	"asymsort/internal/seq"
)

// This file implements the native backend's slice-level parallel
// primitives: the executable counterparts of the metered subroutines in
// packages co and prim. They operate on raw slices under a Pool and are
// what the prims dispatchers (prims.go) route to off the simulators.

// sortLeaf is the size at or below which the native quicksort stops
// forking and finishes sequentially.
const sortLeaf = 1 << 12

// SortRecords sorts recs in place: a parallel quicksort whose two sides
// run through the pool while they are above sortLeaf, finishing each
// side with the sequential SeqSortRecords loop. It allocates no
// scratch. The order is the strict total order seq.TotalLess, matching
// every metered sort in the repository; records equal under it are
// identical, so the output is the same at every worker count and the
// same as the simulated runs'.
func SortRecords(p *Pool, recs []seq.Record) {
	parQuickRecs(p, recs, 2*bits.Len(uint(len(recs))))
}

// parQuickRecs is quickRecs with both sides of each partition forked
// through the pool above sortLeaf.
func parQuickRecs(p *Pool, a []seq.Record, depth int) {
	if len(a) <= sortLeaf || depth == 0 || p.tokens == nil {
		quickRecs(a, depth)
		return
	}
	j := hoarePartition(a)
	p.Run(
		func() { parQuickRecs(p, a[:j+1], depth-1) },
		func() { parQuickRecs(p, a[j+1:], depth-1) },
	)
}

// SeqSortRecords sorts recs in place by the repository's total record
// order — the sequential leaf sort of the native backend. It is a
// median-of-three Hoare quicksort with an insertion-sort base and an
// introsort-style depth fallback to slices.SortFunc: seq.TotalLess
// compiles inline here, where slices.SortFunc pays an indirect
// comparison call per element pair, and the span-ported sorts are
// leaf-dominated.
func SeqSortRecords(a []seq.Record) {
	quickRecs(a, 2*bits.Len(uint(len(a))))
}

func quickRecs(a []seq.Record, depth int) {
	for len(a) > 24 {
		if depth == 0 {
			slices.SortFunc(a, seq.TotalCompare)
			return
		}
		depth--
		j := hoarePartition(a)
		// Recurse into the smaller half, iterate on the larger, so the
		// stack stays O(log n) even when the depth guard never trips.
		if j+1 <= len(a)-(j+1) {
			quickRecs(a[:j+1], depth)
			a = a[j+1:]
		} else {
			quickRecs(a[j+1:], depth)
			a = a[:j+1]
		}
	}
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && seq.TotalLess(v, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// hoarePartition partitions a (len ≥ 3) around the median of its
// first, middle and last records and returns j such that every record
// of a[:j+1] is ≤ every record of a[j+1:].
func hoarePartition(a []seq.Record) int {
	v := median3(a[0], a[len(a)/2], a[len(a)-1])
	i, j := -1, len(a)
	for {
		for i++; seq.TotalLess(a[i], v); i++ {
		}
		for j--; seq.TotalLess(v, a[j]); j-- {
		}
		if i >= j {
			return j
		}
		a[i], a[j] = a[j], a[i]
	}
}

// median3 returns the median of three records under seq.TotalLess.
func median3(x, y, z seq.Record) seq.Record {
	if seq.TotalLess(y, x) {
		x, y = y, x
	}
	if seq.TotalLess(z, y) {
		y = z
		if seq.TotalLess(y, x) {
			y = x
		}
	}
	return y
}

// scanParallelMin is the size below which the native scan runs
// sequentially — a memory-bound pass gains nothing from forking under
// this.
const scanParallelMin = 1 << 14

// scanSlice computes the exclusive prefix sum of a in place and returns
// the total: per-block sums in parallel, a sequential scan of the block
// sums, then a parallel per-block downsweep.
func scanSlice(p *Pool, a []uint64) uint64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	if p.tokens == nil || n < scanParallelMin {
		return exclScanSeq(a, 0)
	}
	blocks := 4 * p.procs
	bl := (n + blocks - 1) / blocks
	sums := make([]uint64, blocks)
	p.ForGrain(blocks, 1, func(t int) {
		lo, hi := t*bl, (t+1)*bl
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		var s uint64
		for _, v := range a[lo:hi] {
			s += v
		}
		sums[t] = s
	})
	total := exclScanSeq(sums, 0)
	p.ForGrain(blocks, 1, func(t int) {
		lo, hi := t*bl, (t+1)*bl
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		exclScanSeq(a[lo:hi], sums[t])
	})
	return total
}

// exclScanSeq exclusive-scans a in place starting from acc, returning
// the final accumulated total.
func exclScanSeq(a []uint64, acc uint64) uint64 {
	for i := range a {
		v := a[i]
		a[i] = acc
		acc += v
	}
	return acc
}

// packSlice returns the records of in whose index satisfies keep, in
// order: per-block counts, a scan, and a parallel scatter.
func packSlice(p *Pool, in []seq.Record, keep func(int) bool) []seq.Record {
	n := len(in)
	if p.tokens == nil || n < scanParallelMin {
		var out []seq.Record
		for i := 0; i < n; i++ {
			if keep(i) {
				out = append(out, in[i])
			}
		}
		return out
	}
	blocks := 4 * p.procs
	bl := (n + blocks - 1) / blocks
	offs := make([]uint64, blocks)
	p.ForGrain(blocks, 1, func(t int) {
		lo, hi := t*bl, (t+1)*bl
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		var cnt uint64
		for i := lo; i < hi; i++ {
			if keep(i) {
				cnt++
			}
		}
		offs[t] = cnt
	})
	total := exclScanSeq(offs, 0)
	out := make([]seq.Record, total)
	p.ForGrain(blocks, 1, func(t int) {
		lo, hi := t*bl, (t+1)*bl
		if lo >= n {
			return
		}
		if hi > n {
			hi = n
		}
		w := offs[t]
		for i := lo; i < hi; i++ {
			if keep(i) {
				out[w] = in[i]
				w++
			}
		}
	})
	return out
}

// countingSortSlice stably sorts in by key(r) ∈ [0, buckets), returning
// the sorted copy and the bucket boundaries — the native counterpart of
// prim.CountingSort, with the same group/histogram/scan/scatter shape.
func countingSortSlice(p *Pool, in []seq.Record, buckets int, key func(seq.Record) int) ([]seq.Record, []int) {
	n := len(in)
	if buckets <= 0 {
		panic("rt: countingSortSlice needs buckets > 0")
	}
	groupSize := 1 + CeilLog2(n+1)*4
	if groupSize < buckets {
		groupSize = buckets
	}
	groups := (n + groupSize - 1) / groupSize
	if groups == 0 {
		groups = 1
	}
	// hist[k*groups + g]: bucket-major so one scan yields stable offsets.
	hist := make([]uint64, buckets*groups)
	p.ForGrain(groups, 1, func(g int) {
		lo, hi := g*groupSize, (g+1)*groupSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			k := key(in[i])
			if k < 0 || k >= buckets {
				panic("rt: countingSortSlice key out of range")
			}
			hist[k*groups+g]++
		}
	})
	scanSlice(p, hist)
	bounds := make([]int, buckets+1)
	for k := 0; k < buckets; k++ {
		bounds[k] = int(hist[k*groups])
	}
	bounds[buckets] = n
	out := make([]seq.Record, n)
	p.ForGrain(groups, 1, func(g int) {
		lo, hi := g*groupSize, (g+1)*groupSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			r := in[i]
			slot := key(r)*groups + g
			out[hist[slot]] = r
			hist[slot]++
		}
	})
	return out, bounds
}
