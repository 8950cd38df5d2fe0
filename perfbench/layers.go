package main

// Per-layer probes: timed calls into each module's public functions, run
// in this process after the workload's load has finished. Engine ledgers
// and spans are read from extmem.Report and the obs trace the engine
// already records; nothing is added to the program.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"asymsort/internal/extmem"
	"asymsort/internal/obs"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
	"asymsort/internal/serve"
	"asymsort/internal/wire"
)

const (
	probeRecs  = 1 << 20 // records per wire/codec/blockfile probe (16 MiB)
	probeReps  = 5       // repetitions per probe; the median is reported
	probeChunk = 4096    // records per BlockFile transfer (64 blocks of B=64)
)

// engineShape is the extmem configuration a workload's sorts run under.
type engineShape struct {
	n, mem int // records; mem is the model's M
	omega  float64
}

// zeroLayers sets every per-layer metric to 0, the reading of a layer the
// workload does not drive; the workload then fills in what it measured.
func (r *run) zeroLayers() {
	for _, m := range layerMetrics {
		r.layer[m.name] = 0
	}
}

// figure records a workload figure: a number that applies to some
// workloads only, so it cannot be gated, but that every run prints with
// its unit. It is also the per-layer metric of the same name.
func (r *run) figure(name string, v float64) {
	r.layer[name] = v
	for _, m := range layerMetrics {
		if m.name == name {
			fmt.Printf("figure %-28s %14.4f %s\n", name, v, m.unit)
		}
	}
}

// timeIt runs f probeReps times and returns the median wall in seconds.
func timeIt(f func() error) (float64, error) {
	var secs []float64
	for range probeReps {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// probeLayers measures wire, codec, rt, blockfile and extmem in process;
// the leaf sort and the engine run at the workload's shape.
func (r *run) probeLayers(shape engineShape) error {
	recs := records(r.seed, 2, probeRecs)
	mb := float64(probeRecs*wire.RecordBytes) / 1e6

	// wire: one chunked frame encoded to memory and decoded back.
	var frame bytes.Buffer
	enc, err := timeIt(func() error {
		frame.Reset()
		fw, err := wire.NewWriter(&frame, probeRecs)
		if err != nil {
			return err
		}
		if err := fw.WriteRecords(recs); err != nil {
			return err
		}
		return fw.Close()
	})
	if err != nil {
		return fmt.Errorf("wire encode probe: %w", err)
	}
	buf := make([]seq.Record, 1<<14)
	dec, err := timeIt(func() error {
		fr, err := wire.NewReader(bytes.NewReader(frame.Bytes()))
		if err != nil {
			return err
		}
		for {
			if _, err := fr.ReadRecords(buf); errors.Is(err, io.EOF) {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return fmt.Errorf("wire decode probe: %w", err)
	}
	r.layer["wire.encode_mb_s"] = mb / enc
	r.layer["wire.decode_mb_s"] = mb / dec

	// codec: a contiguous request frame staged to disk as the daemon
	// stages it, and a record file streamed out as a response frame.
	var contiguous bytes.Buffer
	if err := wire.WriteContiguousHeader(&contiguous, probeRecs); err != nil {
		return err
	}
	raw := make([]byte, probeRecs*wire.RecordBytes)
	wire.EncodeRecords(raw, recs)
	contiguous.Write(raw)
	codec := serve.Codec{Binary: true}
	staged := filepath.Join(r.dir, "probe-staged")
	stage, err := timeIt(func() error {
		_, _, err := codec.Stage(bytes.NewReader(contiguous.Bytes()), staged)
		return err
	})
	if err != nil {
		return fmt.Errorf("codec stage probe: %w", err)
	}
	recFile := filepath.Join(r.dir, "probe-records")
	if err := extmem.WriteRecordsFile(recFile, recs); err != nil {
		return err
	}
	stream, err := timeIt(func() error { return codec.Stream(io.Discard, recFile, probeRecs) })
	if err != nil {
		return fmt.Errorf("codec stream probe: %w", err)
	}
	r.layer["codec.binary_stage_mb_s"] = mb / stage
	r.layer["codec.binary_stream_mb_s"] = mb / stream

	// blockfile: sequential writes then reads at B=64.
	bfPath := filepath.Join(r.dir, "probe-blockfile")
	write, err := timeIt(func() error {
		bf, err := extmem.CreateBlockFile(bfPath, extBlock, nil)
		if err != nil {
			return err
		}
		for off := 0; off < probeRecs; off += probeChunk {
			if err := bf.WriteAt(off, recs[off:off+probeChunk]); err != nil {
				bf.Close()
				return err
			}
		}
		return bf.Close()
	})
	if err != nil {
		return fmt.Errorf("blockfile write probe: %w", err)
	}
	chunk := make([]seq.Record, probeChunk)
	read, err := timeIt(func() error {
		bf, err := extmem.OpenBlockFile(bfPath, extBlock, nil)
		if err != nil {
			return err
		}
		defer bf.Close()
		for off := 0; off < probeRecs; off += probeChunk {
			if err := bf.ReadAt(off, chunk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("blockfile read probe: %w", err)
	}
	r.layer["blockfile.write_mb_s"] = mb / write
	r.layer["blockfile.read_mb_s"] = mb / read

	// rt: the leaf sort on M records, the size of one formation run.
	leaf := records(r.seed, 3, shape.mem)
	work := make([]seq.Record, len(leaf))
	for _, p := range []int{1, 2} {
		pool := rt.NewPool(p)
		var secs []float64
		for range probeReps {
			copy(work, leaf)
			start := time.Now()
			rt.SortRecords(pool, work)
			secs = append(secs, time.Since(start).Seconds())
		}
		r.layer[fmt.Sprintf("rt.leafsort_mrec_s_p%d", p)] = float64(len(leaf)) / 1e6 / median(secs)
	}
	recs, leaf, work = nil, nil, nil
	return r.probeEngine(shape)
}

// probeEngine sorts a shape.n-record file with extmem.Sort three times:
// traced at P=2 for the plan, phase walls and per-level ledger, then
// untraced at P=1 and P=2 for the speedup. Every output is verified.
func (r *run) probeEngine(shape engineShape) error {
	recs := records(r.seed, 4, shape.n)
	want := digest(recs, false)
	in := filepath.Join(r.dir, "probe-engine-in")
	if err := extmem.WriteRecordsFile(in, recs); err != nil {
		return err
	}
	recs = nil
	out := filepath.Join(r.dir, "probe-engine-out")
	sortOnce := func(procs int, span *obs.Span) (*extmem.Report, time.Duration, error) {
		r.attempted++
		start := time.Now()
		rep, err := extmem.Sort(extmem.Config{
			Mem: shape.mem, Block: extBlock, Omega: shape.omega, Procs: procs,
			TmpDir: r.dir, Span: span,
		}, in, out)
		wall := time.Since(start)
		if err == nil {
			err = verifyRecordFile(out, want)
		}
		if err == nil && rep.Total.Writes != rep.PlanWrites {
			r.layer["ledger.mismatches"]++
			err = fmt.Errorf("%d block writes, plan says %d", rep.Total.Writes, rep.PlanWrites)
		}
		if err != nil {
			r.fail("engine probe at P=%d: %v", procs, err)
		}
		return rep, wall, err
	}

	tr := obs.NewTrace("probe")
	root := tr.Root("sort")
	rep, _, err := sortOnce(2, root)
	root.End()
	if err != nil {
		return nil
	}
	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		return err
	}
	_, spans, err := obs.ReadJSONL(&jsonl)
	if err != nil {
		return err
	}
	// The real merge width: every run and every merge node but the root
	// is some merge node's child, so children per node is
	// (runs + nodes - 1) / nodes, read from the merge spans' node counts.
	nodes := 0
	for _, sp := range spans {
		if sp.Name == "merge" {
			nodes += int(sp.Attrs["nodes"])
		}
	}
	if nodes > 0 {
		r.layer["extmem.merge_width"] = float64(rep.Runs+nodes-1) / float64(nodes)
	}
	r.layer["extmem.form_s"] = rep.FormTime.Seconds()
	r.layer["extmem.merge_s"] = rep.MergeTime.Seconds()
	r.layer["extmem.runs"] = float64(rep.Runs)
	r.layer["extmem.levels"] = float64(rep.Levels)
	r.layer["extmem.k"] = float64(rep.K)
	r.layer["extmem.fan_in"] = float64(rep.FanIn)
	for lvl, io := range rep.LevelIO[:min(2, len(rep.LevelIO))] {
		r.layer[fmt.Sprintf("extmem.level%d.reads", lvl)] = float64(io.Reads)
		r.layer[fmt.Sprintf("extmem.level%d.writes", lvl)] = float64(io.Writes)
	}

	_, p1, err1 := sortOnce(1, nil)
	_, p2, err2 := sortOnce(2, nil)
	if err1 == nil && err2 == nil {
		r.layer["extmem.sort_s_p1"] = p1.Seconds()
		r.layer["extmem.sort_s_p2"] = p2.Seconds()
		r.layer["extmem.speedup_p2"] = p1.Seconds() / p2.Seconds()
	}
	note("engine probe: n=%d M=%d omega=%g: k=%d fan-in=%d runs=%d levels=%d merge width %.1f",
		shape.n, shape.mem, shape.omega, rep.K, rep.FanIn, rep.Runs, rep.Levels, r.layer["extmem.merge_width"])
	return nil
}

// verifyRecordFile checks a raw record file the way verifyFrame checks a
// frame.
func verifyRecordFile(path string, want checksum) error {
	bf, err := extmem.OpenBlockFile(path, 1, nil)
	if err != nil {
		return err
	}
	defer bf.Close()
	v := verifier{path: path}
	if err := extmem.ScanRecords(bf, 0, bf.Len(), v.add); err != nil {
		return err
	}
	return v.check(want)
}
