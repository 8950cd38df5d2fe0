package extmem

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"asymsort/internal/seq"
)

// dedupByKey is a test Streamer that keeps the first record of every
// key run of the sorted stream — the smallest payload per key.
type dedupByKey struct {
	last seq.Record
	have bool
}

func (d *dedupByKey) Push(r seq.Record, emit func(seq.Record) error) error {
	if d.have && d.last.Key == r.Key {
		return nil
	}
	d.last, d.have = r, true
	return emit(r)
}

func (d *dedupByKey) Flush(func(seq.Record) error) error { return nil }

// dedupRef applies dedupByKey's fold to an already sorted slice.
func dedupRef(sorted []seq.Record) []seq.Record {
	var out []seq.Record
	for i, r := range sorted {
		if i == 0 || r.Key != sorted[i-1].Key {
			out = append(out, r)
		}
	}
	return out
}

// TestOneWorkerLedgerGolden pins the one-worker engine's block ledger
// and output bytes on a handful of plan shapes: a 59-way k=1 merge,
// multi-pass selection leaves, a ragged tree, a deep tree, and both
// streamed-root shapes (a merged root and a single-leaf root). Any
// change to how P=1 issues its reads, writes, or records shows up
// here as a changed count or digest.
func TestOneWorkerLedgerGolden(t *testing.T) {
	cases := []struct {
		name             string
		n, mem, block, k int
		fewKeys          int // >0: seq.FewDistinct with this many keys
		post             bool
		reads, writes    uint64
		sha              string
	}{
		{"wide-k1", 60000, 1024, 8, 1, 0, false,
			18105, 15000, "0493fbb9fe7fa1f8583a72e68462a45ff97f075abf0edc7f9807afe551c50642"},
		{"passes-k3", 5000, 128, 16, 3, 0, false,
			1662, 626, "322e6f7bf6662fd151e2653ce2183d2006111c5fe66c72d0aebd0aade4225e06"},
		{"ragged", 1040, 128, 16, 1, 0, false,
			272, 193, "c821f14d3339a7b738dce80fe55c2fcf621e17fbe75e55300b86539cfd215799"},
		{"deep", 8192, 64, 16, 1, 0, false,
			4480, 2560, "668dd23162829f29889ab097ced0bdf870f61781baaba88ec10693c7c2b0717b"},
		{"post-merged-root", 5000, 128, 16, 2, 97, true,
			1611, 620, "1591c943cc0a92d2edbda206d1fab7f026905c89d078139752108baab24c7386"},
		{"post-leaf-root", 900, 256, 16, 4, 53, true,
			228, 4, "6bf757ceaa0e6b85abc0f15bc6023f45313badfad97a1e514926f0415f7d328b"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := seq.Uniform(tc.n, uint64(tc.n))
			if tc.fewKeys > 0 {
				in = seq.FewDistinct(tc.n, tc.fewKeys, uint64(tc.n))
			}
			dir := t.TempDir()
			inPath := filepath.Join(dir, "in.bin")
			if err := WriteRecordsFile(inPath, in); err != nil {
				t.Fatal(err)
			}
			// P=1 pins the whole ledger; wider engines must reproduce
			// the writes and the output bytes (their reads add probes).
			for _, procs := range []int{1, 2, 4} {
				outPath := filepath.Join(dir, fmt.Sprintf("out%d.bin", procs))
				cfg := Config{Mem: tc.mem, Block: tc.block, K: tc.k, Procs: procs, TmpDir: dir}
				if tc.post {
					cfg.Post = &dedupByKey{}
				}
				rep, err := Sort(cfg, inPath, outPath)
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				raw, err := os.ReadFile(outPath)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(raw)
				if got := hex.EncodeToString(sum[:]); got != tc.sha {
					t.Errorf("procs=%d: output sha256 %s, golden %s", procs, got, tc.sha)
				}
				if rep.Total.Writes != tc.writes || rep.Total.Writes != rep.PlanWrites {
					t.Errorf("procs=%d: %d block writes, golden %d, plan %d",
						procs, rep.Total.Writes, tc.writes, rep.PlanWrites)
				}
				if procs == 1 && rep.Total.Reads != tc.reads {
					t.Errorf("procs=1: %d block reads, golden %d", rep.Total.Reads, tc.reads)
				}
			}
		})
	}
}
