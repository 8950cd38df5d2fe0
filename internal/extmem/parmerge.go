package extmem

import (
	"fmt"
	"sort"

	"asymsort/internal/rt"
	"asymsort/internal/seq"
)

// This file is the engine's one merge: a plan node's k-way merge cut
// into P disjoint key ranges, one per pool worker — a single range on a
// one-worker engine. Splitter records are sampled from the children's
// in-memory block indexes, each run is cut at the exact lower bound of
// every splitter (binary search over the block index, then inside the
// one straddling block, read once), and each worker merges its own
// sub-ranges through a private loser tree into a private output extent
// — workers never share a device block. Because every run cut is
// exact, worker i's extent is precisely the output ranks
// [T[i], T[i+1]) and the concatenated extents equal the one-range
// merge's output byte-for-byte (ties still break by run index inside
// each worker, and records equal under seq.TotalLess never straddle a
// splitter). At P=1 there are no splitters, no probes, and no sample
// sort: the one range is every run whole.
//
// The write ledger is preserved exactly: workers write only whole
// aligned blocks inside their extents — the worker whose extent ends
// the node also writes the ragged last block — while the ≤B-record
// fragments at each interior extent boundary are kept in memory and
// stitched into their shared device block by the coordinator after the
// join — one WriteAt per block, so the node still costs ⌈len/B⌉ block
// writes, the same as the simulated AEM ledger. Reads gain only the
// splitter probes (at most P-1 block reads per run) plus the blocks
// straddling the per-run cut points and halved read-ahead spans; the
// refill span itself stays at the one-worker carve, because every
// worker owns a full private M — the paper's P-processor parallel
// machine (§3).

// mergeProcs returns how many workers a node's merge fans out over:
// the pool width, clamped so every worker averages at least two output
// blocks.
func (e *engine) mergeProcs(nd *planNode) int {
	p := e.cfg.procs
	if p <= 1 || len(nd.kids) < 2 {
		return 1
	}
	if nd == e.plan.root && e.cfg.post != nil {
		// A streamed root is a stateful fold over the whole sorted
		// stream; only a single range can host it.
		return 1
	}
	if m := nd.len() / (2 * e.cfg.block); p > m {
		p = m
	}
	for _, kid := range nd.kids {
		if len(kid.index) == 0 {
			return 1 // no cut index (defensive; captured whenever procs > 1)
		}
	}
	if p < 2 {
		return 1
	}
	return p
}

// parOut is one merge worker's result: the boundary fragments it held
// back for stitching.
type parOut struct {
	headPos int
	head    []seq.Record
	tailPos int
	tail    []seq.Record
}

// mergeNode merges nd's children — their outputs live in the
// parity-(level-1) spill file (or, for leaf children, were formed
// there) — into the node's own destination on P workers.
func (e *engine) mergeNode(nd *planNode, P int) error {
	f := len(nd.kids)
	B := e.cfg.block
	// Every child sits one level below nd, so all of them live in the
	// same spill file (see engine.dst).
	src, err := e.dst(nd.kids[0])
	if err != nil {
		return err
	}
	dst, err := e.dst(nd)
	if err != nil {
		return err
	}
	cuts, T, err := e.cutRuns(nd, src, P)
	if err != nil {
		return err
	}

	// Per-worker buffer carve: M splits evenly across the fan-in's
	// refill buffers plus the writer's flush buffers — one inline, two
	// to write behind — so f·c plus the flush buffers fit the grant.
	// At a fan-in of kM/B the per-run buffer is ≈B/k records, so each
	// device block is fetched ≈k times per level — exactly the read
	// amplification AEM-MERGESORT trades for its shallower tree. Every
	// worker gets the full carve: the paper's parallel machine (§3)
	// grants each of the P processors a private memory of size M, so
	// the engine's aggregate merge residency of ≤ P·M realizes exactly
	// that machine (P·levelMem when a lease resized the grant), and the
	// read amplification stays at ≈k× instead of growing with P. The
	// flush buffers take whole blocks; degenerate configs whose shares
	// round below one record (or one block) grow the arena slightly,
	// the same small slack the simulator grants.
	c := e.levelMem / (f + e.ioq.writeBufs())
	if c < 1 {
		c = 1
	}
	wLen := c - c%B
	if wLen < B {
		wLen = B
	}

	var idx []seq.Record
	if e.captureIndex(nd) {
		idx = newIndex(nd, B)
	}
	// Per-worker arenas: f run-reader shares of c records (a prefetching
	// reader splits its share into two halves) plus the writer's flush
	// buffers — two to write behind, one to write inline.
	need := f*c + e.ioq.writeBufs()*wLen
	outs := make([]parOut, P)
	errs := make([]error, P)
	tasks := make([]func(), P)
	for wi := 0; wi < P; wi++ {
		wi, arena := wi, e.arena(wi, need)
		tasks[wi] = func() {
			outs[wi], errs[wi] = e.mergeRange(nd, src, cuts, wi, T, dst, idx, c, wLen, arena)
		}
	}
	e.cfg.pool.Run(tasks...)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Stitch the extent-boundary fragments into their shared blocks:
	// every block holding a cut in its interior is written here exactly
	// once, completing the ⌈len/B⌉ write count.
	type frag struct {
		pos  int
		recs []seq.Record
	}
	var frags []frag
	for i := range outs {
		if len(outs[i].head) > 0 {
			frags = append(frags, frag{outs[i].headPos, outs[i].head})
		}
		if len(outs[i].tail) > 0 {
			frags = append(frags, frag{outs[i].tailPos, outs[i].tail})
		}
	}
	sort.Slice(frags, func(a, b int) bool { return frags[a].pos < frags[b].pos })
	buf := make([]seq.Record, 0, B)
	for fi := 0; fi < len(frags); {
		start := frags[fi].pos
		if start%B != 0 {
			return fmt.Errorf("extmem: internal: stitch fragment at %d is not block-aligned", start)
		}
		end := start
		buf = buf[:0]
		for fi < len(frags) && frags[fi].pos == end && end < start+B {
			buf = append(buf, frags[fi].recs...)
			end += len(frags[fi].recs)
			fi++
		}
		if want := min(start+B, nd.hi); end != want {
			return fmt.Errorf("extmem: internal: stitched block [%d,%d) covers only [%d,%d)",
				start, want, start, end)
		}
		if err := dst.WriteAt(start, buf); err != nil {
			return err
		}
		if idx != nil {
			idx[(start-nd.lo)/B] = buf[0]
		}
	}
	nd.index = idx
	return nil
}

// mergeRange is one worker's merge: its sub-range of every run through
// a private loser tree into its private output extent [T[wi], T[wi+1]).
// Whole aligned blocks — and, for the extent that ends the node, the
// ragged last block — stream through the block writer; the fragments
// sharing a boundary block with a neighbouring worker are returned for
// stitching. The one range of a streamed root folds its stream through
// Config.Post on the way to the writer, so the root writes only the
// emitted records.
func (e *engine) mergeRange(nd *planNode, src *BlockFile, cuts []int, wi int, T []int, dst *BlockFile, idx []seq.Record, c, wLen int, arena []seq.Record) (parOut, error) {
	B := e.cfg.block
	lo, hi := T[wi], T[wi+1]
	out := parOut{headPos: lo}
	if lo == hi {
		return out, nil
	}
	f := len(nd.kids)
	rdrs := make([]recStream, 0, f)
	for r, kid := range nd.kids {
		rlo := kid.lo + cuts[r*len(T)+wi]
		rhi := kid.lo + cuts[r*len(T)+wi+1]
		share := arena[r*c : (r+1)*c : (r+1)*c]
		if rlo == rhi {
			continue // dropping empty sub-runs keeps relative run order, so ties break as with one range
		}
		// Read-ahead pays only when the halved refill span still covers
		// whole blocks; below that, tiny refills make the synchronous
		// reader cheaper and keep the span (and the read ledger) at the
		// one-worker engine's size.
		if e.ioq.async() && c >= 2*B {
			rdrs = append(rdrs, newPrefetchReader(src, rlo, rhi, e.ioq,
				share[:c/2], share[c/2:c/2*2]))
		} else {
			rdrs = append(rdrs, newRunReader(src, rlo, rhi, share))
		}
	}
	lt, err := newLoserTree(rdrs)
	if err != nil {
		return out, err
	}
	headEnd := min(lo+(B-lo%B)%B, hi) // first aligned position: head = [lo, headEnd)
	bodyEnd := hi - hi%B              // aligned body = [headEnd, bodyEnd), tail = [bodyEnd, hi)
	if hi == nd.hi {
		bodyEnd = hi // the node's last block is this worker's alone
	}
	bodyEnd = max(bodyEnd, headEnd)
	out.tailPos = bodyEnd
	w := newAsyncWriter(dst, headEnd, e.ioq, arena[f*c:f*c+e.ioq.writeBufs()*wLen])
	emit := w.add
	var post Streamer
	if nd == e.plan.root {
		post = e.cfg.post
	}
	// next is the body position of the next block boundary, where the
	// worker polls for cancellation and records the block index entry.
	pos, next := lo, headEnd
	for {
		rec, ok, err := lt.pop()
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		switch {
		case pos < headEnd:
			out.head = append(out.head, rec)
		case pos < bodyEnd:
			if pos == next {
				next += B
				if err := e.canceled(); err != nil {
					return out, err
				}
				if idx != nil {
					idx[(pos-nd.lo)/B] = rec
				}
			}
			if post != nil {
				err = post.Push(rec, emit)
			} else {
				err = w.add(rec)
			}
			if err != nil {
				return out, err
			}
		default:
			out.tail = append(out.tail, rec)
		}
		pos++
	}
	if pos != hi {
		return out, fmt.Errorf("extmem: merge worker %d of [%d,%d) produced %d records, want %d",
			wi, lo, hi, pos-lo, hi-lo)
	}
	if post != nil {
		if err := post.Flush(emit); err != nil {
			return out, err
		}
	}
	return out, w.close()
}

// cutRuns splits nd's merge into P worker ranges. cuts holds P+1 cut
// positions per run, row-major: cuts[r*(P+1)+i] is the first position
// of run r (relative to the run) whose record is ≥ splitter i-1, so
// worker i consumes [cuts[r*(P+1)+i], cuts[r*(P+1)+i+1]) of every run
// r and writes output ranks [T[i], T[i+1]). At P=1 every run is one
// whole range and no IO is issued.
func (e *engine) cutRuns(nd *planNode, src *BlockFile, P int) (cuts, T []int, err error) {
	B := e.cfg.block
	// Splitters: P-1 quantiles of the children's pooled block-first
	// records — free of IO, and within one block of the exact record
	// quantiles per run, which is all the load balance needs.
	var splitters, probe []seq.Record
	if P > 1 {
		sample := make([]seq.Record, 0, (nd.len()+B-1)/B)
		for _, kid := range nd.kids {
			sample = append(sample, kid.index...)
		}
		rt.SortRecords(e.cfg.pool, sample)
		splitters = Splitters(sample, P)
		probe = make([]seq.Record, B)
	}
	cuts = make([]int, len(nd.kids)*(P+1))
	for r, kid := range nd.kids {
		cr := cuts[r*(P+1) : (r+1)*(P+1)]
		cr[P] = kid.len()
		idx := kid.index
		cachedBlk := -1
		var cached []seq.Record
		for i, t := range splitters {
			jb := sort.Search(len(idx), func(j int) bool { return !seq.TotalLess(idx[j], t) })
			if jb == 0 {
				continue // cr[i+1] = 0: the whole run is ≥ t
			}
			// The exact lower bound lives in block jb-1 — the last block
			// whose first record is < t. One charged block read locates
			// it; consecutive splitters reuse the cached block.
			blk := jb - 1
			if blk != cachedBlk {
				blo := kid.lo + blk*B
				bhi := min(blo+B, kid.hi)
				cached = probe[:bhi-blo]
				if err := src.ReadAt(blo, cached); err != nil {
					return nil, nil, err
				}
				cachedBlk = blk
			}
			in := sort.Search(len(cached), func(x int) bool { return !seq.TotalLess(cached[x], t) })
			cr[i+1] = blk*B + in
		}
	}
	T = make([]int, P+1)
	T[0] = nd.lo
	for i := 1; i <= P; i++ {
		s := 0
		for r := range nd.kids {
			s += cuts[r*(P+1)+i] - cuts[r*(P+1)+i-1]
		}
		T[i] = T[i-1] + s
	}
	if T[P] != nd.hi {
		return nil, nil, fmt.Errorf("extmem: internal: merge cuts of [%d,%d) cover %d records, want %d",
			nd.lo, nd.hi, T[P]-nd.lo, nd.len())
	}
	return cuts, T, nil
}
