package exp

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"asymsort/internal/extmem"
	"asymsort/internal/seq"
)

// ExtBench runs the internal/extmem engine — the real disk-backed
// external sort — across the branching-factor sweep of E4/Appendix A,
// reporting measured block IO and wall-clock instead of a simulated
// ledger. One workload is staged to disk once; every k sorts it under
// the same memory budget twice — on the engine's one-worker case
// and on the procs-wide parallel pipeline — so each row shows the
// read/write trade AND the multi-core speedup at identical ledgers
// (the write columns are asserted equal across the two runs). Like
// NativeBench this table reports wall-clock and is not part of the
// golden-stable registry; run it with `asymbench -exp ext`.
func ExtBench(w io.Writer, cfg Config, procs int) {
	const omega = 16 // the §2 PCM-like device ratio the example uses
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	n := 1 << 20
	if cfg.Quick {
		n = 1 << 16
	}
	// A tight budget (M = n/256) keeps the k=1 tree several levels deep,
	// so the sweep can actually show k collapsing write passes; at
	// generous budgets every k needs one merge level and the trade
	// degenerates to pure read overhead.
	mem := n / 256
	const block = 64
	section(w, cfg, "ext", "External-memory engine: measured IO + wall-clock k sweep",
		fmt.Sprintf("extmem on real files: n=%d, M=%d records, B=%d, device ω=%d; Theorem 4.3 trades k× reads for ⌈log_{kM/B}⌉ write passes; pipelined merge on P=%d workers keeps the write ledger identical", n, mem, block, omega, procs))

	dir, err := os.MkdirTemp("", "asymbench-ext-")
	if err != nil {
		fmt.Fprintf(w, "ext: cannot create temp dir: %v\n", err)
		return
	}
	defer os.RemoveAll(dir)
	inPath := filepath.Join(dir, "in.bin")
	if err := extmem.WriteRecordsFile(inPath, seq.Uniform(n, cfg.Seed)); err != nil {
		fmt.Fprintf(w, "ext: cannot stage workload: %v\n", err)
		return
	}

	tb := newTable("k", "fan-in", "runs", "levels", "blk reads", "blk writes",
		"cost=R+ωW", "vs k=1", "wall seq", fmt.Sprintf("wall P=%d", procs), "par x")
	var baseCost float64
	bestK, bestCost := 0, math.Inf(1)
	warmed := false
	for _, k := range []int{1, 2, 3, 4, 8, 16, 64} {
		outPath := filepath.Join(dir, "out.bin")
		if !warmed {
			// One untimed warmup sort so the first timed row doesn't
			// absorb the cold page cache and allocator ramp-up.
			if _, err := extmem.Sort(extmem.Config{
				Mem: mem, Block: block, K: k, Omega: omega, TmpDir: dir, Procs: 1,
			}, inPath, outPath); err != nil {
				fmt.Fprintf(w, "ext: warmup: %v\n", err)
				return
			}
			warmed = true
		}
		run := func(p int) (*extmem.Report, time.Duration, error) {
			start := time.Now()
			rep, err := extmem.Sort(extmem.Config{
				Mem: mem, Block: block, K: k, Omega: omega, TmpDir: dir, Procs: p,
			}, inPath, outPath)
			return rep, time.Since(start), err
		}
		rep, seqWall, err := run(1)
		if err != nil {
			fmt.Fprintf(w, "ext: k=%d: %v\n", k, err)
			return
		}
		verifyExtOutput(outPath, n)
		parRep, parWall, err := run(procs)
		if err != nil {
			fmt.Fprintf(w, "ext: k=%d procs=%d: %v\n", k, procs, err)
			return
		}
		verifyExtOutput(outPath, n)
		if parRep.Total.Writes != rep.Total.Writes {
			panic(fmt.Sprintf("exp: ext parallel engine wrote %d blocks, sequential %d — the ledger identity broke",
				parRep.Total.Writes, rep.Total.Writes))
		}
		c := rep.Cost()
		if k == 1 {
			baseCost = c
		}
		if c < bestCost {
			bestK, bestCost = k, c
		}
		tb.add(k, rep.FanIn, rep.Runs, rep.Levels, rep.Total.Reads, rep.Total.Writes,
			fmt.Sprintf("%.0f", c),
			fmt.Sprintf("%.3fx", c/baseCost),
			fmt.Sprintf("%.1fms", seqWall.Seconds()*1e3),
			fmt.Sprintf("%.1fms", parWall.Seconds()*1e3),
			fmt.Sprintf("%.2fx", seqWall.Seconds()/parWall.Seconds()))
	}
	tb.write(w, cfg)
	bound := float64(omega) / math.Log2(float64(mem)/float64(block))
	ruleK := extmem.ChooseK(omega, mem, block)
	// The shape claim: widening the fan-in beyond the classical M/B must
	// strictly improve the measured device cost somewhere in the sweep.
	verdict(w, cfg, bestK > 1 && bestCost < baseCost,
		"measured-best k=%d at device cost %.0f (%.1f%% below k=1); Appendix A rule (k/lg k < ω/lg(M/B) = %.2f) picks k=%d",
		bestK, bestCost, 100*(1-bestCost/baseCost), bound, ruleK)
}

// verifyExtOutput panics unless the engine's output file is the sorted
// workload — a benchmark that sorts incorrectly must not report a time.
func verifyExtOutput(path string, n int) {
	out, err := extmem.ReadRecordsFile(path)
	if err != nil {
		panic(fmt.Sprintf("exp: ext output unreadable: %v", err))
	}
	if len(out) != n || !seq.IsSorted(out) {
		panic("exp: ext engine produced a wrong answer")
	}
}
