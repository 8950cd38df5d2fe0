package extmem

import "asymsort/internal/seq"

// The streaming post-pass hook: the third reusable phase of the engine
// next to run formation and the planned k-way merge. A Streamer wired
// into Config.Post intercepts the final sorted stream — the root
// node's output — record by record before it reaches the output file,
// so order-dependent reductions over the sorted order (grouped
// reduce-by-key, dedup, grouped counting) fuse into the sort's last
// pass instead of costing a separate read-everything/write-everything
// pass. The write-efficiency is the point: the root level then writes
// ⌈out/B⌉ blocks for the reduced output instead of ⌈n/B⌉ for the full
// sorted copy, and Report.PlanWrites is adjusted to exactly that, so
// the measured-equals-planned ledger identity extends to streamed
// runs. With Post nil nothing changes: the sort path's plan, ledger,
// and output bytes are untouched.
//
// The hook is a stateful fold over the whole sorted stream, so a
// streamed root runs as one range: a merged root is the range merge at
// P=1 (parmerge.go), and a single-leaf root is the formation pass loop
// with a sink that folds each sorted candidate set (formRootStreamed).
// Formation and the non-root merge levels keep their full parallel
// shape.

// Streamer is the streaming post-pass applied to the final sorted
// stream. Push is called once per record in sorted order; Flush once
// after the last record. Both emit their output records — zero, one,
// or many per call — through the provided emit, which writes to the
// output file through the engine's block-aligned writer. A Streamer is
// used by one engine at a time; implementations need no locking.
type Streamer interface {
	Push(r seq.Record, emit func(seq.Record) error) error
	Flush(emit func(seq.Record) error) error
}

// RecordScanner streams a region [lo, hi) of a BlockFile in order
// through a bounded refill buffer, charging each refill to the file's
// ledger. It is the cursor the scan-based kernel compositions
// (internal/kernel's top-k, histogram, and merge-join co-stream) are
// built from; the engine's own merge readers remain the internal
// recStream implementations.
type RecordScanner struct {
	r       runReader
	started bool
}

// NewRecordScanner returns a scanner over records [lo, hi) of bf with
// a bufRecs-record refill buffer (clamped to at least one block).
func NewRecordScanner(bf *BlockFile, lo, hi, bufRecs int) *RecordScanner {
	if bufRecs < bf.b {
		bufRecs = bf.b
	}
	return &RecordScanner{r: runReader{bf: bf, next: lo, hi: hi, buf: make([]seq.Record, 0, bufRecs)}}
}

// Next returns the next record in order, ok=false at the end.
func (s *RecordScanner) Next() (seq.Record, bool, error) {
	var ok bool
	var err error
	if !s.started {
		s.started = true
		ok, err = s.r.refill()
	} else {
		ok, err = s.r.advance()
	}
	if err != nil || !ok {
		return seq.Record{}, false, err
	}
	return s.r.cur(), true, nil
}

// ScanRecords streams records [lo, hi) of bf through fn in order — the
// charged one-pass scan the scan-only kernels run instead of a sort.
func ScanRecords(bf *BlockFile, lo, hi int, fn func(r seq.Record) error) error {
	sc := NewRecordScanner(bf, lo, hi, formChunk)
	for {
		r, ok, err := sc.Next()
		if err != nil || !ok {
			return err
		}
		if err := fn(r); err != nil {
			return err
		}
	}
}

// formRootStreamed handles the streamed run whose plan is a single
// leaf (n ≤ kM, no merge levels): formation and the post-pass fuse.
// The leaf's selection passes emit their sorted batches in global
// sorted order, so the streamer folds across pass boundaries exactly
// as it folds across the root merge's stream, and the output file
// receives only the emitted records — ⌈out/B⌉ block writes — through
// one block writer. leaves is empty for an empty input, in which case
// only Flush runs.
func (e *engine) formRootStreamed(leaves []*planNode) error {
	post := e.cfg.post
	wLen := max(formChunk-formChunk%e.cfg.block, e.cfg.block)
	w := newAsyncWriter(e.out, 0, e.ioq, make([]seq.Record, e.ioq.writeBufs()*wLen))
	emit := w.add
	err := e.produceLeaves(leaves, e.inlineSink(func(b formBatch) error {
		for _, r := range b.buf {
			if err := post.Push(r, emit); err != nil {
				return err
			}
		}
		return nil
	}))
	if err == nil {
		err = post.Flush(emit)
	}
	if err == nil {
		err = w.close()
	}
	return err
}
