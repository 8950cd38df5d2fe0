package extmem

import (
	"fmt"
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
// watermark in a bounded max-heap, sorts the retained set with
// rt.SortRecords, and writes it out once. Reads multiply by up to k;
// every record is written exactly once — the paper's trade.
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

// passSpan opens one selection-pass trace span under the formation
// span. The caller closes it with endPass once the pass's record count
// is known. Nil-safe like all span plumbing.
func (e *engine) passSpan(nd *planNode, off int) *obs.Span {
	sp := e.formSpan.Child("pass")
	sp.Set(obs.Attr{Key: "leaf", Val: int64(nd.lo)}, obs.Attr{Key: "off", Val: int64(off)})
	return sp
}

func endPass(sp *obs.Span, recs int) {
	sp.Set(obs.Attr{Key: "recs", Val: int64(recs)})
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
				endPass(sp, 0)
				return err
			}
			endPass(sp, n)
			if err := sink.put(formBatch{nd: nd, dst: dst, off: nd.lo, buf: buf}); err != nil {
				return err
			}
			continue
		}
		var watermark seq.Record
		have := false
		for outOff := nd.lo; outOff < nd.hi; {
			sp := e.passSpan(nd, outOff)
			cand, err := e.selectPass(nd, watermark, have, sink.take())
			endPass(sp, len(cand))
			if err != nil {
				return err
			}
			if len(cand) == 0 {
				return noProgressErr(nd, outOff)
			}
			// The next pass's watermark is the candidate maximum — what
			// the sort will place last, computed here so the scan need
			// not wait for the sort.
			watermark, have = cand[0], true
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
// range: it gathers into cand (capacity ≥ M) up to M candidates above
// the watermark, first by filling, then by max-heap replacement.
func (e *engine) selectPass(nd *planNode, watermark seq.Record, have bool, cand []seq.Record) ([]seq.Record, error) {
	chunk := e.readBuf
	heaped := false
	for off := nd.lo; off < nd.hi; off += len(chunk) {
		if err := e.canceled(); err != nil {
			return cand, err
		}
		c := nd.hi - off
		if c > cap(chunk) {
			c = cap(chunk)
		}
		chunk = chunk[:c]
		if err := e.in.ReadAt(off+e.cfg.inSkip, chunk); err != nil {
			return cand, err
		}
		for _, r := range chunk {
			if have && !seq.TotalLess(watermark, r) {
				continue // written by an earlier pass
			}
			if len(cand) < e.cfg.mem {
				cand = append(cand, r)
				continue
			}
			if !heaped {
				heapify(cand)
				heaped = true
			}
			if seq.TotalLess(r, cand[0]) {
				cand[0] = r
				siftDown(cand, 0)
			}
		}
	}
	return cand, nil
}

// noProgressErr reports a selection pass that found nothing above the
// watermark — duplicate records under seq.TotalLess.
func noProgressErr(nd *planNode, outOff int) error {
	return fmt.Errorf("extmem: selection pass at %d/%d found no records above the watermark (duplicate records under seq.TotalLess?)",
		outOff-nd.lo, nd.len())
}

// heapify establishes the max-heap property under seq.TotalLess.
func heapify(h []seq.Record) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

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
