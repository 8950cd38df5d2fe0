package kernel

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"asymsort/internal/extmem"
	"asymsort/internal/seq"
)

// ErrBudget marks a composition whose working set cannot fit the
// memory grant (histogram counts, the top-k heap, a merge-join key
// group). Callers that admit jobs against a budget (the serving layer)
// match it to distinguish "grant too small" from engine failure.
var ErrBudget = errors.New("memory budget exceeded")

// The external-memory compositions. Each is built from the extmem
// engine's reusable phases — the full sort, the streaming post-pass
// hook, and charged scans over BlockFiles — and predicts its own
// block-write count (ExtResult.PlanWrites), which the measured ledger
// must equal exactly. Reads are reported but not predicted, matching
// the sort engine's own contract.

// extChunk is the streaming granularity of the compositions' scans,
// staging copies, and output writers, in records (block-rounded at
// use). Like the engine's formChunk, it rides in the slack beyond M.
const extChunk = 1 << 13

// blocksOf returns ⌈n/block⌉.
func blocksOf(n, block int) uint64 {
	return uint64((n + block - 1) / block)
}

// appender buffers sequential output records from offset 0 of a
// BlockFile through a block-multiple buffer, so n appended records
// cost exactly ⌈n/B⌉ block writes — the kernel-side counterpart of
// the engine's block writer (extmem's asyncWriter).
type appender struct {
	bf  *extmem.BlockFile
	off int
	buf []seq.Record
}

func newAppender(bf *extmem.BlockFile, block int) *appender {
	n := extChunk - extChunk%block
	if n < block {
		n = block
	}
	return &appender{bf: bf, buf: make([]seq.Record, 0, n)}
}

func (a *appender) add(r seq.Record) error {
	a.buf = append(a.buf, r)
	if len(a.buf) == cap(a.buf) {
		return a.flush()
	}
	return nil
}

func (a *appender) flush() error {
	if len(a.buf) == 0 {
		return nil
	}
	if err := a.bf.WriteAt(a.off, a.buf); err != nil {
		return err
	}
	a.off += len(a.buf)
	a.buf = a.buf[:0]
	return nil
}

func sortExt(cfg extmem.Config, inPath, outPath string, _ Params) (*ExtResult, error) {
	rep, err := extmem.Sort(cfg, inPath, outPath)
	if err != nil {
		return nil, err
	}
	return &ExtResult{
		Sorts: []*extmem.Report{rep}, Total: rep.Total,
		PlanWrites: rep.PlanWrites, OutN: rep.OutN,
	}, nil
}

// reduceStreamer folds the sorted stream by key: the semisort
// post-pass. State is one record — the open group's key and running
// payload sum.
type reduceStreamer struct {
	cur  seq.Record
	have bool
}

func (s *reduceStreamer) Push(r seq.Record, emit func(seq.Record) error) error {
	if s.have && s.cur.Key == r.Key {
		s.cur.Val += r.Val
		return nil
	}
	if s.have {
		if err := emit(s.cur); err != nil {
			return err
		}
	}
	s.cur, s.have = r, true
	return nil
}

func (s *reduceStreamer) Flush(emit func(seq.Record) error) error {
	if !s.have {
		return nil
	}
	s.have = false
	return emit(s.cur)
}

// semisortExt is the fused composition: the full write-efficient sort
// with the reduce fold riding the root pass, so the final level writes
// only the group records. PlanWrites comes out of the engine already
// adjusted for the emitted count.
func semisortExt(cfg extmem.Config, inPath, outPath string, _ Params) (*ExtResult, error) {
	cfg.Post = &reduceStreamer{}
	rep, err := extmem.Sort(cfg, inPath, outPath)
	if err != nil {
		return nil, err
	}
	return &ExtResult{
		Sorts: []*extmem.Report{rep}, Total: rep.Total,
		PlanWrites: rep.PlanWrites, OutN: rep.OutN,
	}, nil
}

// histogramExt is one charged counting scan over the input plus one
// write of the buckets-record counts table: no sort, no spill.
func histogramExt(cfg extmem.Config, inPath, outPath string, p Params) (*ExtResult, error) {
	var st extmem.IOStats
	in, err := extmem.OpenBlockFile(inPath, cfg.Block, &st)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	n := in.Len() - cfg.InSkip
	if err := registry["histogram"].Check(n, p); err != nil {
		return nil, err
	}
	if p.Buckets > cfg.Mem {
		return nil, fmt.Errorf("kernel histogram: %d buckets exceed the %d-record grant: %w", p.Buckets, cfg.Mem, ErrBudget)
	}
	counts := make([]uint64, p.Buckets)
	err = extmem.ScanRecords(in, cfg.InSkip, in.Len(), func(r seq.Record) error {
		counts[BucketOf(r.Key, p.Buckets)]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	out, err := extmem.CreateBlockFile(outPath, cfg.Block, &st)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	a := newAppender(out, cfg.Block)
	for b, c := range counts {
		if err := a.add(seq.Record{Key: uint64(b), Val: c}); err != nil {
			return nil, err
		}
	}
	if err := a.flush(); err != nil {
		return nil, err
	}
	return &ExtResult{
		Total:      st.Snapshot(),
		PlanWrites: blocksOf(p.Buckets, cfg.Block),
		OutN:       p.Buckets,
	}, nil
}

// topkExt is one charged scan through a bounded k-record max-heap plus
// one ⌈k/B⌉-block write of the sorted result: every record is read
// once, only heap entrants are ever written.
func topkExt(cfg extmem.Config, inPath, outPath string, p Params) (*ExtResult, error) {
	var st extmem.IOStats
	in, err := extmem.OpenBlockFile(inPath, cfg.Block, &st)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	n := in.Len() - cfg.InSkip
	if err := registry["top-k"].Check(n, p); err != nil {
		return nil, err
	}
	k := p.K
	if k > n {
		k = n
	}
	if k > cfg.Mem {
		return nil, fmt.Errorf("kernel top-k: k=%d exceeds the %d-record grant: %w", k, cfg.Mem, ErrBudget)
	}
	bh := extmem.NewBoundedHeap(make([]seq.Record, 0, k))
	err = extmem.ScanRecords(in, cfg.InSkip, in.Len(), func(r seq.Record) error {
		bh.Push(r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	heap := bh.Records()
	if len(heap) < k {
		// n < k never reaches here (k clamped), so this is defensive.
		k = len(heap)
	}
	slices.SortFunc(heap, seq.TotalCompare)
	out, err := extmem.CreateBlockFile(outPath, cfg.Block, &st)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	if err := out.WriteAt(0, heap); err != nil {
		return nil, err
	}
	return &ExtResult{
		Total:      st.Snapshot(),
		PlanWrites: blocksOf(k, cfg.Block),
		OutN:       k,
	}, nil
}

// mergejoinExt sorts both relations with the write-efficient engine —
// the left relation via a charged staging copy (the engine sorts whole
// files), the right directly from the input with InSkip — then
// co-streams the sorted files, buffering one right key group at a time
// and emitting matches left-major. PlanWrites = the staging copy + both
// sorts' plans + the emitted matches.
func mergejoinExt(cfg extmem.Config, inPath, outPath string, p Params) (*ExtResult, error) {
	var st extmem.IOStats
	in, err := extmem.OpenBlockFile(inPath, cfg.Block, &st)
	if err != nil {
		return nil, err
	}
	n := in.Len() - cfg.InSkip
	if err := registry["merge-join"].Check(n, p); err != nil {
		in.Close()
		return nil, err
	}
	tmpDir := cfg.TmpDir
	if tmpDir == "" {
		tmpDir = os.TempDir()
	}
	dir, err := os.MkdirTemp(tmpDir, "asymsort-join-*")
	if err != nil {
		in.Close()
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Stage the left relation into its own file (charged copy), so the
	// engine — which sorts whole files — can sort it alone; the right
	// relation sorts straight off the input via InSkip.
	leftPath := filepath.Join(dir, "left.bin")
	left, err := extmem.CreateBlockFile(leftPath, cfg.Block, &st)
	if err != nil {
		in.Close()
		return nil, err
	}
	la := newAppender(left, cfg.Block)
	err = extmem.ScanRecords(in, cfg.InSkip, cfg.InSkip+p.LeftN, func(r seq.Record) error {
		return la.add(r)
	})
	if err == nil {
		err = la.flush()
	}
	left.Close()
	in.Close()
	if err != nil {
		return nil, err
	}

	leftSorted := filepath.Join(dir, "left-sorted.bin")
	rightSorted := filepath.Join(dir, "right-sorted.bin")
	sortCfg := cfg
	sortCfg.Post = nil
	sortCfg.TmpDir = dir
	sortCfg.InSkip = 0
	lRep, err := extmem.Sort(sortCfg, leftPath, leftSorted)
	if err != nil {
		return nil, err
	}
	sortCfg.InSkip = cfg.InSkip + p.LeftN
	rRep, err := extmem.Sort(sortCfg, inPath, rightSorted)
	if err != nil {
		return nil, err
	}

	ls, err := extmem.OpenBlockFile(leftSorted, cfg.Block, &st)
	if err != nil {
		return nil, err
	}
	defer ls.Close()
	rs, err := extmem.OpenBlockFile(rightSorted, cfg.Block, &st)
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	out, err := extmem.CreateBlockFile(outPath, cfg.Block, &st)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	a := newAppender(out, cfg.Block)

	lsc := extmem.NewRecordScanner(ls, 0, ls.Len(), extChunk)
	rsc := extmem.NewRecordScanner(rs, 0, rs.Len(), extChunk)
	lr, lok, err := lsc.Next()
	if err != nil {
		return nil, err
	}
	rr, rok, err := rsc.Next()
	if err != nil {
		return nil, err
	}
	var group []seq.Record
	for lok && rok {
		switch {
		case lr.Key < rr.Key:
			if lr, lok, err = lsc.Next(); err != nil {
				return nil, err
			}
		case rr.Key < lr.Key:
			if rr, rok, err = rsc.Next(); err != nil {
				return nil, err
			}
		default:
			// Buffer the right key group (bounded by the memory budget),
			// then stream the left group against it — left-major match
			// order, exactly rt.MergeJoin's.
			key := lr.Key
			group = group[:0]
			for rok && rr.Key == key {
				if len(group) == cfg.Mem {
					return nil, fmt.Errorf("kernel merge-join: right key group for %d exceeds the %d-record grant: %w", key, cfg.Mem, ErrBudget)
				}
				group = append(group, rr)
				if rr, rok, err = rsc.Next(); err != nil {
					return nil, err
				}
			}
			for lok && lr.Key == key {
				for _, g := range group {
					if err := a.add(seq.Record{Key: key, Val: lr.Val + g.Val}); err != nil {
						return nil, err
					}
				}
				if lr, lok, err = lsc.Next(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := a.flush(); err != nil {
		return nil, err
	}

	total := st.Snapshot().Add(lRep.Total).Add(rRep.Total)
	return &ExtResult{
		Sorts: []*extmem.Report{lRep, rRep},
		Total: total,
		PlanWrites: blocksOf(p.LeftN, cfg.Block) + lRep.PlanWrites + rRep.PlanWrites +
			blocksOf(a.off, cfg.Block),
		OutN: a.off,
	}, nil
}
