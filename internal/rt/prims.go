package rt

import (
	"slices"

	"asymsort/internal/co"
	"asymsort/internal/prim"
	"asymsort/internal/seq"
	"asymsort/internal/wd"
)

// This file routes the shared parallel subroutines to each backend's
// implementation. On the sim backends every call delegates to the
// package (co or prim) the algorithms called before the rt refactor, so
// metered numbers are preserved by construction; natively each call
// runs its slice-level counterpart from npar.go.

// Scan computes the exclusive prefix sum of a in place and returns the
// total.
func Scan(c Ctx, a Arr[uint64]) uint64 {
	switch cc := c.(type) {
	case *SimCO:
		return co.Scan(cc.c, a.(coArr[uint64]).a)
	case *SimWD:
		return prim.Scan(cc.t, a.(wdArr[uint64]).a)
	case *Native:
		return scanSlice(cc.pool, a.(*natArr[uint64]).data)
	}
	panic("rt: unknown backend")
}

// MergeSort sorts in into a fresh array: by parallel mergesort on the
// metered backends, by the in-place parallel quicksort SortRecords on
// the native one (the same total order, so the same output).
func MergeSort(c Ctx, in Arr[seq.Record]) Arr[seq.Record] {
	switch cc := c.(type) {
	case *SimCO:
		return coArr[seq.Record]{co.MergeSort(cc.c, in.(coArr[seq.Record]).a)}
	case *SimWD:
		return wdArr[seq.Record]{prim.MergeSort(cc.t, in.(wdArr[seq.Record]).a)}
	case *Native:
		out := slices.Clone(in.(*natArr[seq.Record]).data)
		SortRecords(cc.pool, out)
		return &natArr[seq.Record]{data: out}
	}
	panic("rt: unknown backend")
}

// OracleSort sorts in into a fresh array. Under SimWD it charges Cole's
// published mergesort bounds without executing its pipelined structure
// (prim.OracleColeSort); there is nothing to oracle natively, so the
// native backend simply sorts. SimCO algorithms never invoke a cost
// oracle, so that combination is rejected.
func OracleSort(c Ctx, in Arr[seq.Record]) Arr[seq.Record] {
	switch cc := c.(type) {
	case *SimWD:
		return wdArr[seq.Record]{prim.OracleColeSort(cc.t, in.(wdArr[seq.Record]).a)}
	case *Native:
		out := slices.Clone(in.(*natArr[seq.Record]).data)
		SortRecords(cc.pool, out)
		return &natArr[seq.Record]{data: out}
	}
	panic("rt: OracleSort is a PRAM/native subroutine")
}

// Pack copies the records of in whose index satisfies keep into a fresh
// dense array, preserving order. keep must be cheap and pure — the
// native backend evaluates it concurrently, the metered backends twice
// per index (count then scatter).
func Pack(c Ctx, in Arr[seq.Record], keep func(Ctx, int) bool) Arr[seq.Record] {
	switch cc := c.(type) {
	case *SimWD:
		var w SimWD
		return wdArr[seq.Record]{prim.Pack(cc.t, in.(wdArr[seq.Record]).a, func(t *wd.T, i int) bool {
			w.t = t
			return keep(&w, i)
		})}
	case *Native:
		data := packSlice(cc.pool, in.(*natArr[seq.Record]).data, func(i int) bool {
			return keep(cc, i)
		})
		return &natArr[seq.Record]{data: data}
	}
	panic("rt: Pack is a PRAM/native subroutine")
}

// CountingSort stably sorts in by key(r) ∈ [0, buckets) — Lemma 3.1's
// integer sort — returning the sorted array and the bucket boundary
// offsets (length buckets+1). key must be pure; its reads bypass the
// meters and metered callers charge them in bulk (see pramsort).
func CountingSort(c Ctx, in Arr[seq.Record], buckets int, key func(seq.Record) int) (Arr[seq.Record], []int) {
	switch cc := c.(type) {
	case *SimWD:
		out, bounds := prim.CountingSort(cc.t, in.(wdArr[seq.Record]).a, buckets, key)
		return wdArr[seq.Record]{out}, bounds
	case *Native:
		out, bounds := countingSortSlice(cc.pool, in.(*natArr[seq.Record]).data, buckets, key)
		return &natArr[seq.Record]{data: out}, bounds
	}
	panic("rt: CountingSort is a PRAM/native subroutine")
}

// SearchSplitters returns the number of splitters with key ≤ rKey — the
// bucket index of a record. Written against the Ctx surface, it charges
// exactly prim.SearchSplitters' O(log n) reads on metered backends.
func SearchSplitters(c Ctx, splitters Arr[uint64], rKey uint64) int {
	lo, hi := 0, splitters.Len()
	for lo < hi {
		mid := (lo + hi) / 2
		if splitters.Get(c, mid) <= rKey {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
