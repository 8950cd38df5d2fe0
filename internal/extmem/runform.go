package extmem

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"asymsort/internal/obs"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
)

// This file forms the leaf runs of the merge tree: the real counterpart
// of aemsort.SelectionSortFile (Lemma 4.2). A leaf holds at most kM
// records but the engine may hold only M in memory, so a leaf is formed
// in ⌈n/M⌉ ≤ k passes: each pass streams the leaf's range of the input
// file, retains the M smallest records above the previous pass's
// watermark, sorts the retained set with rt.SortRecords, and writes it
// out once. Reads multiply by up to k; every record is written exactly
// once — the paper's trade.
//
// The paper counts only block IO, but the passes' in-memory selection
// is work too, so only the first pass pays for a bounded max-heap over
// every record. Alongside the heap it counts the leaf's records into a
// key histogram (keyHist: 2^14 monotone key buckets sized to the key
// range of the pass's first M-record fill). Each later pass reads its
// plan off the histogram: the buckets above the watermark whose records
// all fit in M are "sure" and go straight into the candidate set, the
// one bucket that straddles the M-th record goes through a bounded
// max-heap confined to the rest of the set, and every higher bucket is
// skipped. Passes 2..k are therefore linear unless one bucket holds
// most of the leaf: few distinct keys, or keys outside the first
// fill's range, which clamp into an end bucket (a reverse-sorted leaf).
// The first pass is the same routine with an empty sure range and
// everything routed to the heap. A scan whose sure count disagrees with
// the histogram is an error, never a wrong run.
//
// One pass loop (produceLeaves) owns every read of the phase and hands
// each candidate set to a formSink. On a one-worker pool the sink sorts
// and stores the set inline, reusing one M-record buffer. On a parallel
// pool it feeds a three-stage pipeline: a sort stage runs
// rt.SortRecords on the pool and a write-behind stage drains sorted
// sets to the spill file, so the read of one pass, the sort of the
// previous, and the write of the one before that overlap. Two M-record
// candidate buffers circulate through the stages (the pipeline's
// double buffer); the second buffer and the sort scratch are the
// documented parallel-mode slack beyond the budget. The streamed
// single-leaf root runs the same loop with a sink that folds each
// sorted set through Config.Post (stream.go). The IO ledger is the same
// at every width: the same ReadAt/WriteAt spans are issued in the same
// order, only overlapped in time.

// formChunk is the streaming read granularity of a selection pass, in
// records (clamped to a block minimum). Like the simulator's load
// block, it rides in the slack beyond M.
const formChunk = 1 << 13

// histBits sizes the selection histogram: 2^14 uint32 counts, 64 KiB,
// allocated once per engine and, like formChunk, riding in the slack
// beyond M.
const (
	histBits    = 14
	histBuckets = 1 << histBits
)

// passSpan opens one selection-pass trace span under the formation
// span. The caller closes it with endPass once the pass's record count
// is known. Nil-safe like all span plumbing.
func (e *engine) passSpan(nd *planNode, off int) *obs.Span {
	sp := e.formSpan.Child("pass")
	sp.Set(obs.Attr{Key: "leaf", Val: int64(nd.lo)}, obs.Attr{Key: "off", Val: int64(off)})
	return sp
}

// endPass records the pass's candidate count and how many records went
// through its heap.
func endPass(sp *obs.Span, recs, heaped int) {
	sp.Set(obs.Attr{Key: "recs", Val: int64(recs)}, obs.Attr{Key: "heap", Val: int64(heaped)})
	sp.End()
}

// formBatch is one sorted-run write: the pass loop's unit of work. buf
// is unsorted when it leaves the loop, sorted by the sink.
type formBatch struct {
	nd  *planNode
	dst *BlockFile
	off int // absolute destination offset
	buf []seq.Record
}

// formSink receives the pass loop's candidate sets. take hands out an
// empty buffer of capacity ≥ M; put sorts a filled one and stores it,
// after which the buffer belongs to the sink again.
type formSink struct {
	take func() []seq.Record
	put  func(formBatch) error
}

// inlineSink sorts each candidate set on the calling goroutine and
// passes it to store, reusing worker 0's arena as the one candidate
// buffer.
func (e *engine) inlineSink(store func(formBatch) error) formSink {
	buf := e.arena(0, e.cfg.mem)
	return formSink{
		take: func() []seq.Record { return buf[:0] },
		put: func(b formBatch) error {
			rt.SortRecords(e.cfg.pool, b.buf)
			return store(b)
		},
	}
}

// store writes a sorted batch to its run and fills the run's block
// index entries for the blocks that start inside the batch.
func (e *engine) store(b formBatch) error {
	if err := b.dst.WriteAt(b.off, b.buf); err != nil {
		return err
	}
	if idx := b.nd.index; idx != nil {
		blk := e.cfg.block
		for j := (blk - (b.off-b.nd.lo)%blk) % blk; j < len(b.buf); j += blk {
			idx[(b.off+j-b.nd.lo)/blk] = b.buf[j]
		}
	}
	return nil
}

// formLeaves forms every leaf run of the plan, in plan order: inline
// on a one-worker pool, through the sort and write-behind stages on a
// parallel one.
func (e *engine) formLeaves(leaves []*planNode) error {
	if e.cfg.procs == 1 {
		return e.produceLeaves(leaves, e.inlineSink(e.store))
	}
	var (
		sortCh  = make(chan formBatch, 1)
		writeCh = make(chan formBatch, 1)
		free    = make(chan []seq.Record, 2)
		failed  atomic.Bool
		werr    error // set by the write stage before failed
	)
	free <- e.arena(0, e.cfg.mem)[:0]
	free <- e.arena(1, e.cfg.mem)[:0]

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // sort stage
		defer wg.Done()
		defer close(writeCh)
		for b := range sortCh {
			if !failed.Load() {
				rt.SortRecords(e.cfg.pool, b.buf)
			}
			writeCh <- b
		}
	}()
	go func() { // write-behind stage
		defer wg.Done()
		for b := range writeCh {
			if !failed.Load() {
				if err := e.store(b); err != nil {
					werr = err
					failed.Store(true)
				}
			}
			// Recycle the buffer even after a failure, so the producer
			// can never block on an empty free list.
			free <- b.buf[:0]
		}
	}()

	err := e.produceLeaves(leaves, formSink{
		take: func() []seq.Record { return <-free },
		put: func(b formBatch) error {
			if failed.Load() {
				return werr
			}
			sortCh <- b
			return nil
		},
	})
	close(sortCh)
	wg.Wait()
	if err == nil && failed.Load() {
		err = werr
	}
	return err
}

// produceLeaves is the one formation pass loop: it streams each leaf's
// candidate sets out of the input file — one read pass for a leaf that
// fits the budget, Lemma 4.2 selection passes above a watermark
// otherwise — and hands them to sink. It owns all reads of the
// formation phase, so the read ledger is charged in the same order at
// every width.
func (e *engine) produceLeaves(leaves []*planNode, sink formSink) error {
	for _, nd := range leaves {
		if err := e.canceled(); err != nil {
			return err
		}
		n := nd.len()
		if n == 0 {
			continue
		}
		dst, err := e.dst(nd)
		if err != nil {
			return err
		}
		if e.captureIndex(nd) {
			nd.index = newIndex(nd, e.cfg.block)
		}
		// Fast path: the leaf fits the budget (always, when k = 1) — one
		// read pass, one sort, one write, no watermark (and hence no
		// uniqueness requirement).
		if n <= e.cfg.mem {
			sp := e.passSpan(nd, nd.lo)
			buf := sink.take()[:n]
			if err := e.in.ReadAt(nd.lo+e.cfg.inSkip, buf); err != nil {
				endPass(sp, 0, 0)
				return err
			}
			endPass(sp, n, 0)
			if err := sink.put(formBatch{nd: nd, dst: dst, off: nd.lo, buf: buf}); err != nil {
				return err
			}
			continue
		}
		if e.hist == nil {
			e.hist = new(keyHist)
		}
		var watermark seq.Record
		for outOff := nd.lo; outOff < nd.hi; {
			sp := e.passSpan(nd, outOff)
			cand, heaped, err := e.selectPass(nd, watermark, outOff-nd.lo, sink.take())
			endPass(sp, len(cand), heaped)
			if err != nil {
				return err
			}
			// The next pass's watermark is the candidate maximum — what
			// the sort will place last, computed here so the scan need
			// not wait for the sort.
			watermark = cand[0]
			for _, r := range cand[1:] {
				if seq.TotalLess(watermark, r) {
					watermark = r
				}
			}
			if err := sink.put(formBatch{nd: nd, dst: dst, off: outOff, buf: cand}); err != nil {
				return err
			}
			outOff += len(cand)
		}
	}
	return nil
}

// selectPass runs one Lemma 4.2 selection pass over the leaf's input
// range: it gathers into cand (capacity ≥ M) the M smallest records
// above the watermark — the whole rest of the leaf on its last pass —
// and returns them with the number of records pushed through the heap.
// taken counts the records earlier passes took; 0 marks the first
// pass, which has no watermark and builds the leaf's histogram.
func (e *engine) selectPass(nd *planNode, watermark seq.Record, taken int, cand []seq.Record) ([]seq.Record, int, error) {
	h, mem := e.hist, e.cfg.mem
	first := taken == 0
	// Records in buckets [wb, sureEnd) go to cand[:sure), those in
	// buckets [sureEnd, heapEnd] to the heap over cand[sure:mem), the
	// rest nowhere. The first pass routes every bucket to the heap.
	wb, sureEnd, heapEnd, sure := 0, 0, histBuckets-1, 0
	if !first {
		wb = h.bucket(watermark.Key)
		var ok bool
		if sureEnd, sure, ok = h.route(wb, taken, mem); !ok {
			return cand, 0, histErr(nd, taken, "earlier passes took %d records, more than the histogram holds up to the watermark", taken)
		}
		heapEnd = sureEnd
	}
	sured := cand[:0:sure]
	heap := NewBoundedHeap(cand[sure:sure:mem])
	heaped := 0
	counted := !first // the first pass counts once its first fill sizes the buckets
	chunk := e.readBuf
	for off := nd.lo; off < nd.hi; off += len(chunk) {
		if err := e.canceled(); err != nil {
			return cand, heaped, err
		}
		chunk = chunk[:min(nd.hi-off, cap(chunk))]
		if err := e.in.ReadAt(off+e.cfg.inSkip, chunk); err != nil {
			return cand, heaped, err
		}
		for _, r := range chunk {
			if !counted {
				heap.Push(r)
				heaped++
				if heap.Full() {
					h.reset(heap.Records())
					counted = true
				}
				continue
			}
			b := h.bucket(r.Key)
			if first {
				h.n[b]++
			}
			// Outside [wb, heapEnd] (one unsigned compare), or at or
			// below the watermark: taken by an earlier pass, or left for a
			// later one.
			if uint(b-wb) > uint(heapEnd-wb) || (b == wb && !first && !seq.TotalLess(watermark, r)) {
				continue
			}
			if b < sureEnd {
				if len(sured) == cap(sured) {
					return cand, heaped, histErr(nd, taken, "found more than the histogram's %d sure records", sure)
				}
				sured = append(sured, r)
				continue
			}
			heap.Push(r)
			heaped++
		}
	}
	want := min(mem, nd.len()-taken)
	if len(sured) != sure || sure+len(heap.Records()) != want {
		return cand, heaped, histErr(nd, taken, "found %d sure and %d heaped records, the histogram %d sure of %d",
			len(sured), len(heap.Records()), sure, want)
	}
	return cand[:want], heaped, nil
}

// histErr reports a selection pass whose scan disagrees with the leaf's
// histogram — records that changed between passes, or duplicates under
// seq.TotalLess, which the watermark drops.
func histErr(nd *planNode, taken int, format string, args ...any) error {
	return fmt.Errorf("extmem: selection pass at %d/%d: %s (input changed between passes, or duplicate records under seq.TotalLess?)",
		taken, nd.len(), fmt.Sprintf(format, args...))
}

// keyHist counts one leaf's records by key bucket. The bucket function
// is monotone in Key, so every record of a lower bucket sorts before
// every record of a higher one, and records equal in Key share a
// bucket.
type keyHist struct {
	lo    uint64 // the smallest key of the first fill
	shift uint   // spreads the first fill's key range over the buckets
	n     [histBuckets]uint32
}

// reset sizes the buckets to fill's key range — so narrow ranges such
// as small sequential keys still spread out — and counts fill.
func (h *keyHist) reset(fill []seq.Record) {
	lo, hi := fill[0].Key, fill[0].Key
	for _, r := range fill[1:] {
		lo, hi = min(lo, r.Key), max(hi, r.Key)
	}
	h.lo, h.shift = lo, uint(max(bits.Len64(hi-lo)-histBits, 0))
	clear(h.n[:])
	for _, r := range fill {
		h.n[h.bucket(r.Key)]++
	}
}

// bucket maps key to its bucket, clamping keys outside the first
// fill's range to the end buckets.
func (h *keyHist) bucket(key uint64) int {
	if key < h.lo {
		return 0
	}
	return int(min((key-h.lo)>>h.shift, histBuckets-1))
}

// route plans a pass after the first, given the watermark's bucket wb
// and the count taken by earlier passes. Earlier passes took every
// record of the buckets below wb — they sort below the watermark — and
// so exactly taken minus those from wb. route returns the bucket end
// such that the records above the watermark in [wb, end) number
// sure ≤ mem, while bucket end would overflow mem (end = histBuckets
// when the rest of the leaf fits). ok is false when the counts cannot
// hold.
func (h *keyHist) route(wb, taken, mem int) (end, sure int, ok bool) {
	below := 0
	for _, c := range h.n[:wb] {
		below += int(c)
	}
	tookWB := taken - below
	if tookWB < 0 || tookWB > int(h.n[wb]) {
		return 0, 0, false
	}
	for b := wb; b < histBuckets; b++ {
		c := int(h.n[b])
		if b == wb {
			c -= tookWB
		}
		if sure+c > mem {
			return b, sure, true
		}
		sure += c
	}
	return histBuckets, sure, true
}

// BoundedHeap keeps the smallest cap(buf) records pushed into it under
// seq.TotalLess: it fills its buffer, then holds it as a max-heap whose
// root each smaller record replaces. It is the bounded max-heap of the
// selection passes and of the top-k kernel.
type BoundedHeap struct {
	h []seq.Record
}

// NewBoundedHeap returns an empty heap over buf's capacity.
func NewBoundedHeap(buf []seq.Record) BoundedHeap {
	return BoundedHeap{h: buf[:0]}
}

// Push offers r to the heap.
func (b *BoundedHeap) Push(r seq.Record) {
	h := b.h
	if len(h) < cap(h) {
		b.h = append(h, r)
		if len(b.h) == cap(h) {
			for i := len(b.h)/2 - 1; i >= 0; i-- {
				siftDown(b.h, i)
			}
		}
		return
	}
	if len(h) > 0 && seq.TotalLess(r, h[0]) {
		h[0] = r
		siftDown(h, 0)
	}
}

// Full reports whether the buffer is full, so that Push replaces.
func (b *BoundedHeap) Full() bool { return len(b.h) == cap(b.h) }

// Records returns the kept records, in heap order once full.
func (b *BoundedHeap) Records() []seq.Record { return b.h }

// siftDown restores the max-heap property below index i.
func siftDown(h []seq.Record, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && seq.TotalLess(h[l], h[r]) {
			big = r
		}
		if !seq.TotalLess(h[i], h[big]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
