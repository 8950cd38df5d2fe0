package extmem

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"asymsort/internal/seq"
)

// TestSortParallelMatchesSequential is the parallel engine's identity
// gate: for every configuration and every worker count, the engine
// must produce the byte-identical output file and the identical
// per-level block-write ledger as the one-worker engine (which the
// integration tests pin to the simulated AEM machine). Reads may only
// grow — the splitter probes and the narrower per-worker prefetch
// buffers add reads, never remove any.
func TestSortParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		n, mem, block, k int
	}{
		{100, 64, 16, 1},       // single merge, tiny
		{1040, 128, 16, 1},     // ragged-depth tree
		{4097, 64, 16, 1},      // deep tree + tail record
		{5000, 128, 16, 2},     // multi-pass selection leaves
		{12345, 256, 16, 3},    // ragged everything, odd k
		{50000, 512, 64, 4},    // wide fan-in
		{3000, 1 << 12, 64, 1}, // whole file fits one run: pipeline, no merge
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d/M=%d/B=%d/k=%d", tc.n, tc.mem, tc.block, tc.k), func(t *testing.T) {
			in := seq.Uniform(tc.n, uint64(tc.n+tc.k))
			dir := t.TempDir()
			inPath := filepath.Join(dir, "in.bin")
			if err := WriteRecordsFile(inPath, in); err != nil {
				t.Fatal(err)
			}
			seqPath := filepath.Join(dir, "seq.bin")
			seqRep, err := Sort(Config{Mem: tc.mem, Block: tc.block, K: tc.k, TmpDir: dir, Procs: 1},
				inPath, seqPath)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ReadRecordsFile(seqPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{2, 3, 4} {
				parPath := filepath.Join(dir, fmt.Sprintf("par%d.bin", procs))
				parRep, err := Sort(Config{Mem: tc.mem, Block: tc.block, K: tc.k, TmpDir: dir, Procs: procs},
					inPath, parPath)
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if parRep.Procs != procs {
					t.Errorf("procs=%d: report says %d workers", procs, parRep.Procs)
				}
				got, err := ReadRecordsFile(parPath)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("procs=%d: %d records, want %d", procs, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("procs=%d: outputs diverge at record %d: %+v vs %+v",
							procs, i, got[i], want[i])
					}
				}
				if parRep.Total.Writes != seqRep.Total.Writes {
					t.Errorf("procs=%d: %d block writes, sequential %d",
						procs, parRep.Total.Writes, seqRep.Total.Writes)
				}
				for lvl := range seqRep.LevelIO {
					if parRep.LevelIO[lvl].Writes != seqRep.LevelIO[lvl].Writes {
						t.Errorf("procs=%d level %d: %d block writes, sequential %d",
							procs, lvl, parRep.LevelIO[lvl].Writes, seqRep.LevelIO[lvl].Writes)
					}
				}
				if parRep.Total.Reads < seqRep.Total.Reads {
					t.Errorf("procs=%d: %d block reads, fewer than sequential %d",
						procs, parRep.Total.Reads, seqRep.Total.Reads)
				}
			}
		})
	}
}

// TestSortParallelWorkloadShapes runs the parallel engine over the
// hostile key distributions: duplicate-heavy and all-equal keys stress
// the splitter cuts (many equal records must never straddle a worker).
func TestSortParallelWorkloadShapes(t *testing.T) {
	const n, mem, block = 6000, 256, 32
	shapes := map[string][]seq.Record{
		"sorted":   seq.Sorted(n),
		"reversed": seq.Reversed(n),
		"fewkeys":  seq.FewDistinct(n, 7, 5),
		"allequal": seq.FewDistinct(n, 1, 5),
	}
	for name, in := range shapes {
		t.Run(name, func(t *testing.T) {
			runSort(t, Config{Mem: mem, Block: block, K: 2, Procs: 4}, in)
		})
	}
	// Exact duplicates (legal at k=1, where leaves fit the budget and
	// no selection watermark exists): every splitter equals every
	// record, so all cut positions collapse and one worker inherits the
	// whole merge — the degenerate-extent path.
	t.Run("exactdup", func(t *testing.T) {
		in := make([]seq.Record, n)
		for i := range in {
			in[i] = seq.Record{Key: 7, Val: 7}
		}
		runSort(t, Config{Mem: mem, Block: block, K: 1, Procs: 4}, in)
	})
}

// TestSortErrorCleanup injects a device write failure mid-run and
// asserts the engine surfaces it and still leaves the spill directory
// empty — the error path must join every pipeline stage, merge worker,
// and in-flight async transfer before the cleanup defers run.
func TestSortErrorCleanup(t *testing.T) {
	boom := errors.New("injected device failure")
	// n=8192, M=64, B=16, k=1 builds a 3-level tree: spill parity 0
	// holds formation output, parity 1 the first merge level, so
	// failing on a "spill1" path hits the engine strictly mid-merge.
	cases := []struct {
		name   string
		procs  int
		target string // path substring that should fail
		nth    int64  // which matching write fails (1-based)
	}{
		{"formation-first-write-seq", 1, "spill0", 1},
		{"formation-first-write-par", 4, "spill0", 1},
		{"formation-late-write-par", 4, "spill0", 50},
		{"mid-merge-seq", 1, "spill1", 3},
		{"mid-merge-par", 4, "spill1", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := seq.Uniform(8192, 7)
			dir := t.TempDir()
			spill := filepath.Join(dir, "spill")
			if err := os.Mkdir(spill, 0o755); err != nil {
				t.Fatal(err)
			}
			inPath := filepath.Join(dir, "in.bin")
			if err := WriteRecordsFile(inPath, in); err != nil {
				t.Fatal(err)
			}
			var hits atomic.Int64
			testWriteErr = func(path string, off int) error {
				if strings.Contains(filepath.Base(path), tc.target) && hits.Add(1) == tc.nth {
					return boom
				}
				return nil
			}
			defer func() { testWriteErr = nil }()
			_, err := Sort(Config{Mem: 64, Block: 16, K: 1, TmpDir: spill, Procs: tc.procs},
				inPath, filepath.Join(dir, "out.bin"))
			if !errors.Is(err, boom) {
				t.Fatalf("Sort returned %v, want the injected failure", err)
			}
			left, err := os.ReadDir(spill)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				names := make([]string, len(left))
				for i, e := range left {
					names[i] = e.Name()
				}
				t.Fatalf("spill dir not cleaned after error: %v", names)
			}
		})
	}
}

// TestPrefetchReaderMatchesRunReader drives the async read-ahead facade
// and the synchronous reader over the same region with the same buffer
// capacity: same records, same charged read ledger.
func TestPrefetchReaderMatchesRunReader(t *testing.T) {
	recs := seq.Uniform(1000, 5)
	dir := t.TempDir()
	path := filepath.Join(dir, "r.bin")
	if err := WriteRecordsFile(path, recs); err != nil {
		t.Fatal(err)
	}
	q := &ioSession{q: NewIOQueue(2)}
	defer q.q.Close()
	for _, bufRecs := range []int{1, 3, 16, 64, 1000, 2000} {
		for _, span := range [][2]int{{0, 1000}, {17, 923}, {500, 500}} {
			var sStats, pStats IOStats
			sbf, err := OpenBlockFile(path, 16, &sStats)
			if err != nil {
				t.Fatal(err)
			}
			pbf, err := OpenBlockFile(path, 16, &pStats)
			if err != nil {
				t.Fatal(err)
			}
			drain := func(s recStream) []seq.Record {
				var out []seq.Record
				ok, err := s.refill()
				for ; ok && err == nil; ok, err = s.advance() {
					out = append(out, s.cur())
				}
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			want := drain(newRunReader(sbf, span[0], span[1], make([]seq.Record, bufRecs)))
			got := drain(newPrefetchReader(pbf, span[0], span[1], q,
				make([]seq.Record, bufRecs), make([]seq.Record, bufRecs)))
			if len(got) != len(want) {
				t.Fatalf("buf=%d span=%v: %d records, want %d", bufRecs, span, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("buf=%d span=%v: record %d differs", bufRecs, span, i)
				}
			}
			if g, w := pStats.Snapshot(), sStats.Snapshot(); g != w {
				t.Fatalf("buf=%d span=%v: prefetch ledger %+v, sync ledger %+v", bufRecs, span, g, w)
			}
			sbf.Close()
			pbf.Close()
		}
	}
}

// TestAsyncWriterMatchesInlineSession drives the block writer over the
// same record stream on a queued session (write-behind, two buffers)
// and on the one-worker engine's queueless session (direct WriteAt,
// one aliased buffer): same file bytes, same charged write ledger.
func TestAsyncWriterMatchesInlineSession(t *testing.T) {
	recs := seq.Uniform(777, 9)
	dir := t.TempDir()
	queued := &ioSession{q: NewIOQueue(2)}
	defer queued.q.Close()
	inline := &ioSession{}
	for _, bufBlocks := range []int{1, 2, 7} {
		for _, base := range []int{0, 16, 160} {
			write := func(path string, q *ioSession) (costW uint64) {
				var stats IOStats
				bf, err := CreateBlockFile(path, 16, &stats)
				if err != nil {
					t.Fatal(err)
				}
				defer bf.Close()
				w := newAsyncWriter(bf, base, q, make([]seq.Record, q.writeBufs()*bufBlocks*16))
				for _, r := range recs {
					if err := w.add(r); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.close(); err != nil {
					t.Fatal(err)
				}
				if got, want := bf.Len(), base+len(recs); got != want {
					t.Fatalf("file holds %d records, want %d", got, want)
				}
				return stats.Snapshot().Writes
			}
			sPath := filepath.Join(dir, fmt.Sprintf("s-%d-%d.bin", bufBlocks, base))
			aPath := filepath.Join(dir, fmt.Sprintf("a-%d-%d.bin", bufBlocks, base))
			sw := write(sPath, inline)
			aw := write(aPath, queued)
			if sw != aw {
				t.Fatalf("buf=%d base=%d: queued charged %d writes, inline %d", bufBlocks, base, aw, sw)
			}
			want, err := ReadRecordsFile(sPath)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadRecordsFile(aPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("file lengths differ: %d vs %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("buf=%d base=%d: record %d differs", bufBlocks, base, i)
				}
			}
		}
	}
}
