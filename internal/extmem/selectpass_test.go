package extmem

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"asymsort/internal/obs"
	"asymsort/internal/seq"
	"asymsort/internal/xrand"
)

// selectShape is one key distribution the histogram-guided selection
// pass is checked on. linear marks the shapes whose passes after the
// first must route almost nothing through the heap.
type selectShape struct {
	name   string
	gen    func(n int) []seq.Record
	linear bool
}

var selectShapes = []selectShape{
	{"uniform", func(n int) []seq.Record { return seq.Uniform(n, 7) }, true},
	// A permutation of 1..n: the narrow, small keys of `seq 1 N | shuf`.
	{"narrow", func(n int) []seq.Record {
		recs := seq.Sorted(n)
		xrand.Shuffle(xrand.New(7), n, func(i, j int) { recs[i].Key, recs[j].Key = recs[j].Key, recs[i].Key })
		for i := range recs {
			recs[i].Key++
		}
		return recs
	}, true},
	{"sorted", seq.Sorted, false},
	// Sorted with stride 64: every key past the first fill lies above
	// its range, clamped into the last bucket.
	{"strided", func(n int) []seq.Record {
		recs := seq.Sorted(n)
		for i := range recs {
			recs[i].Key *= 64
		}
		return recs
	}, false},
	// Every key past the first fill lies below its range.
	{"reversed", seq.Reversed, false},
	{"few-distinct", func(n int) []seq.Record { return seq.FewDistinct(n, 7, 7) }, false},
	{"all-equal", func(n int) []seq.Record { return seq.FewDistinct(n, 1, 7) }, false},
	// Two outliers stretch the first fill's range over all 64 bits, so
	// every other key lands in one bucket.
	{"one-bucket", func(n int) []seq.Record {
		recs := seq.Uniform(n, 7)
		for i := range recs {
			recs[i].Key = 1<<40 | recs[i].Key>>48
		}
		recs[0].Key, recs[1].Key = 0, math.MaxUint64
		return recs
	}, false},
}

// refPass is the heap-only selection pass the histogram routing must
// reproduce: the M smallest records above the watermark.
func refPass(recs []seq.Record, watermark seq.Record, have bool, mem int) []seq.Record {
	h := NewBoundedHeap(make([]seq.Record, 0, mem))
	for _, r := range recs {
		if !have || seq.TotalLess(watermark, r) {
			h.Push(r)
		}
	}
	return h.Records()
}

// passEngine returns an engine whose input file holds recs as one leaf,
// set up for calling selectPass directly: an M-record budget, a
// chunk-record read buffer, and its histogram.
func passEngine(tb testing.TB, recs []seq.Record, mem, chunk int) (*engine, *planNode) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "in.bin")
	if err := WriteRecordsFile(path, recs); err != nil {
		tb.Fatal(err)
	}
	in, err := OpenBlockFile(path, 16, new(IOStats))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { in.Close() })
	e := &engine{cfg: resolved{mem: mem, block: 16}, in: in, readBuf: make([]seq.Record, 0, chunk), hist: new(keyHist)}
	return e, &planNode{lo: 0, hi: len(recs)}
}

// runPasses drives selectPass over one leaf holding all of recs, the
// way produceLeaves does, checking every pass's candidates against
// refPass. It returns each pass's heap count.
func runPasses(t *testing.T, recs []seq.Record, mem int) []int {
	t.Helper()
	// An odd chunk, so the first fill completes mid-chunk.
	e, nd := passEngine(t, recs, mem, 97)
	var heaps []int
	var watermark seq.Record
	for taken := 0; taken < len(recs); {
		cand, heaped, err := e.selectPass(nd, watermark, taken, make([]seq.Record, 0, mem))
		if err != nil {
			t.Fatalf("pass %d: %v", len(heaps)+1, err)
		}
		want := refPass(recs, watermark, taken > 0, mem)
		got := slices.Clone(cand)
		slices.SortFunc(got, seq.TotalCompare)
		slices.SortFunc(want, seq.TotalCompare)
		if !slices.Equal(got, want) {
			t.Fatalf("pass %d: %d candidates differ from the heap-only pass's %d", len(heaps)+1, len(got), len(want))
		}
		heaps = append(heaps, heaped)
		watermark = got[len(got)-1]
		taken += len(got)
	}
	return heaps
}

// passHeaps sorts recs at P=1 under a trace and returns the heap count
// of every selection pass span that starts past its leaf's first pass.
func passHeaps(t *testing.T, cfg Config, inPath string) []int64 {
	t.Helper()
	tr := obs.NewTrace("t")
	root := tr.Root("job")
	cfg.Span = root
	if _, err := Sort(cfg, inPath, filepath.Join(t.TempDir(), "traced.bin")); err != nil {
		t.Fatal(err)
	}
	root.End()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	_, spans, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var heaps []int64
	for _, sp := range spans {
		if sp.Name == "pass" && sp.Attrs["off"] > sp.Attrs["leaf"] {
			heaps = append(heaps, sp.Attrs["heap"])
		}
	}
	return heaps
}

// TestSelectPassHistogram is the differential test of the
// histogram-guided selection pass. For every key shape and every leaf
// size n ∈ {jM−1, jM, jM+1}, j ≤ 5, each pass must take exactly the
// heap-only pass's candidate multiset; whole sorts at P ∈ {1,2,4}, on a
// single multi-pass leaf (k=6) and, past n = 2M, on two-pass leaves
// under a merge (k=2, B=M), must produce the reference output with the
// planned ledger; and
// on uniform and narrow keys the passes after the first must route
// well under n/4 records through the heap, as their spans report.
func TestSelectPassHistogram(t *testing.T) {
	const mem = 1024
	for _, sh := range selectShapes {
		for j := 1; j <= 5; j++ {
			for _, n := range []int{j*mem - 1, j * mem, j*mem + 1} {
				t.Run(fmt.Sprintf("%s/n=%d", sh.name, n), func(t *testing.T) {
					recs := sh.gen(n)
					if n > mem {
						for i, h := range runPasses(t, recs, mem)[1:] {
							if sh.linear && h >= n/4 {
								t.Errorf("pass %d pushed %d of %d records through the heap", i+2, h, n)
							}
						}
					}
					want := slices.Clone(recs)
					slices.SortFunc(want, seq.TotalCompare)
					dir := t.TempDir()
					inPath := filepath.Join(dir, "in.bin")
					if err := WriteRecordsFile(inPath, recs); err != nil {
						t.Fatal(err)
					}
					for _, c := range []struct{ k, block int }{{6, 16}, {2, mem}} {
						k := c.k
						var first []byte
						for _, p := range []int{1, 2, 4} {
							outPath := filepath.Join(dir, fmt.Sprintf("out-k%d-p%d.bin", k, p))
							cfg := Config{Mem: mem, Block: c.block, K: k, Procs: p, TmpDir: dir}
							rep, err := Sort(cfg, inPath, outPath)
							if err != nil {
								t.Fatalf("k=%d P=%d: %v", k, p, err)
							}
							if k == 2 && n > 2*mem && rep.Levels == 0 {
								t.Fatalf("k=2 P=%d: no merge level over %d records", p, n)
							}
							plan := NewPlan(n, mem, c.block, k, 0)
							for lvl, w := range plan.LevelWrites() {
								if rep.LevelIO[lvl].Writes != w {
									t.Fatalf("k=%d P=%d level %d: wrote %d blocks, plan %d", k, p, lvl, rep.LevelIO[lvl].Writes, w)
								}
							}
							raw, err := os.ReadFile(outPath)
							if err != nil {
								t.Fatal(err)
							}
							if first == nil {
								got, err := ReadRecordsFile(outPath)
								if err != nil {
									t.Fatal(err)
								}
								if !slices.Equal(got, want) {
									t.Fatalf("k=%d P=%d: output diverges from the reference sort", k, p)
								}
								first = raw
							} else if !bytes.Equal(raw, first) {
								t.Fatalf("k=%d: P=%d output differs from P=1", k, p)
							}
						}
						if !sh.linear || n <= mem {
							continue
						}
						heaps := passHeaps(t, Config{Mem: mem, Block: c.block, K: k, Procs: 1, TmpDir: dir}, inPath)
						if len(heaps) == 0 {
							t.Fatalf("k=%d: no pass span past a leaf's first pass", k)
						}
						for i, h := range heaps {
							if h >= int64(n/4) {
								t.Errorf("k=%d: pass span %d reports %d heap records of %d", k, i, h, n)
							}
						}
					}
				})
			}
		}
	}
}

// TestSelectPassHistogramMismatch checks that a histogram the scan
// contradicts fails the pass instead of emitting a wrong run.
func TestSelectPassHistogramMismatch(t *testing.T) {
	const mem, n = 256, 1000
	e, nd := passEngine(t, seq.Uniform(n, 3), mem, formChunk)
	cand, _, err := e.selectPass(nd, seq.Record{}, 0, make([]seq.Record, 0, mem))
	if err != nil {
		t.Fatal(err)
	}
	watermark := slices.MaxFunc(cand, seq.TotalCompare)
	// Drop one count from the first bucket above the watermark's: the
	// second pass then finds a sure record the histogram does not hold.
	for c := e.hist.bucket(watermark.Key) + 1; c < histBuckets; c++ {
		if e.hist.n[c] > 0 {
			e.hist.n[c]--
			break
		}
	}
	if _, _, err := e.selectPass(nd, watermark, mem, make([]seq.Record, 0, mem)); err == nil {
		t.Fatal("a pass over a contradicted histogram succeeded")
	}
}

// BenchmarkSelectPass forms one 1 Mi-record leaf under M = 128 Ki at
// k = 8 — eight selection passes, the first heap-bound, the other seven
// histogram-guided — on one worker, without writing the runs.
func BenchmarkSelectPass(b *testing.B) {
	const n, mem = 1 << 20, 128 << 10
	e, nd := passEngine(b, seq.Uniform(n, 1), mem, formChunk)
	cand := make([]seq.Record, 0, mem)
	b.SetBytes(n * RecordBytes)
	for b.Loop() {
		if err := leafPasses(e, nd, cand); err != nil {
			b.Fatal(err)
		}
	}
}

// leafPasses runs selectPass over the leaf until it is formed.
func leafPasses(e *engine, nd *planNode, cand []seq.Record) error {
	var watermark seq.Record
	for taken := 0; taken < nd.len(); {
		got, _, err := e.selectPass(nd, watermark, taken, cand)
		if err != nil {
			return err
		}
		watermark = slices.MaxFunc(got, seq.TotalCompare)
		taken += len(got)
	}
	return nil
}

// TestSelectPassAllocs: a leaf's selection passes allocate nothing —
// the histogram is the engine's, allocated once, and the candidate
// buffer is the caller's.
func TestSelectPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	const n, mem = 5000, 1024
	e, nd := passEngine(t, seq.Uniform(n, 4), mem, formChunk)
	cand := make([]seq.Record, 0, mem)
	allocs := testing.AllocsPerRun(3, func() {
		if err := leafPasses(e, nd, cand); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a leaf's five selection passes allocated %.1f times", allocs)
	}
}
