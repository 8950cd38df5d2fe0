package main

// The file-sort workloads: asymsort -model ext on one seeded 3M-record
// input, closed loop, one sort at a time.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"asymsort/internal/extmem"
)

// extWorkload is one file-sort configuration.
type extWorkload struct {
	n      int
	omega  float64
	binary bool // -wire binary with a contiguous-frame input, else text
}

const (
	extMemBytes = 8 << 20 // -mem 8MB
	extBlock    = 64      // -b 64
)

var (
	extMerge  = extWorkload{n: 3_000_000, omega: 8}
	extSelect = extWorkload{n: 3_000_000, omega: 32, binary: true}
)

// flags are the CLI flags shared by the workload's sorts and its empty
// set-up probe.
func (w extWorkload) flags(tmp string) []string {
	f := []string{"-model", "ext", "-mem", "8MB", "-b", strconv.Itoa(extBlock),
		"-omega", strconv.FormatFloat(w.omega, 'f', -1, 64), "-k", "0", "-procs", "2", "-tmpdir", tmp}
	if w.binary {
		f = append(f, "-wire", "binary")
	}
	return f
}

// cliLedger is what one asymsort ext run printed about itself.
type cliLedger struct {
	k, runs, levels    int
	reads, writes      uint64
	stage, form, merge time.Duration
	verified           bool
}

var (
	planRE     = regexp.MustCompile(`plan +: k=(\d+), fan-in=\d+, (\d+) runs, (\d+) merge levels`)
	totalRE    = regexp.MustCompile(`total +: (\d+) reads, (\d+) writes`)
	elapsedRE  = regexp.MustCompile(`elapsed +: stage (\S+), run formation (\S+), merge (\S+)`)
	verifiedRE = regexp.MustCompile(`output verified: sorted`)
)

func parseCLI(out string) (cliLedger, error) {
	var l cliLedger
	m := planRE.FindStringSubmatch(out)
	t := totalRE.FindStringSubmatch(out)
	e := elapsedRE.FindStringSubmatch(out)
	if m == nil || t == nil || e == nil {
		return l, fmt.Errorf("asymsort output lacks its plan/total/elapsed lines:\n%s", out)
	}
	l.k, _ = strconv.Atoi(m[1])
	l.runs, _ = strconv.Atoi(m[2])
	l.levels, _ = strconv.Atoi(m[3])
	l.reads, _ = strconv.ParseUint(t[1], 10, 64)
	l.writes, _ = strconv.ParseUint(t[2], 10, 64)
	var err error
	for i, d := range []*time.Duration{&l.stage, &l.form, &l.merge} {
		if *d, err = time.ParseDuration(e[i+1]); err != nil {
			return l, fmt.Errorf("asymsort elapsed line: %w", err)
		}
	}
	l.verified = verifiedRE.MatchString(out)
	return l, nil
}

// runExt drives one file-sort workload.
func runExt(r *run, w extWorkload) error {
	recs := records(r.seed, 1, w.n)
	in := filepath.Join(r.dir, "in")
	var want checksum
	var err error
	if w.binary {
		want, err = digest(recs, false), writeFrame(in, recs)
	} else {
		want, err = digest(recs, true), writeTextKeys(in, recs)
	}
	if err != nil {
		return err
	}
	recs = nil
	tmp := filepath.Join(r.dir, "spill")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		return err
	}
	mem := extMemBytes / extmem.RecordBytes
	k := extmem.ChooseK(w.omega, mem, extBlock)
	planWrites := extmem.NewPlan(w.n, mem, extBlock, k, 0).TotalWrites()
	note("input: %d records, omega=%g, expected plan k=%d with %d block writes", w.n, w.omega, k, planWrites)

	// Set-up: launch to exit of an empty sort with the same flags, the
	// CLI's fixed cost per invocation.
	var setups []float64
	for range setupLaunches {
		c, err := r.runCLI(append(w.flags(tmp), "-n", "0")...)
		if err != nil {
			return err
		}
		setups = append(setups, c.wall.Seconds())
	}

	var walls, stage, sortMS, other []float64
	var rss float64
	var ledger cliLedger
	var busy time.Duration
	mismatches := 0
	// Job 0 warms the page cache and is verified but not timed.
	for i := 0; i < 4 || busy < r.seconds; i++ {
		out := filepath.Join(r.dir, fmt.Sprintf("out%d", i))
		r.attempted++
		c, err := r.runCLI(append(w.flags(tmp), "-in", in, "-out", out)...)
		if i > 0 {
			busy += c.wall
		}
		if err != nil {
			r.fail("job %d: %v", i, err)
			continue
		}
		l, err := parseCLI(c.stdout)
		if err == nil && !l.verified {
			err = fmt.Errorf("asymsort did not report its output verified")
		}
		if err == nil {
			if w.binary {
				err = verifyFrame(out, want)
			} else {
				err = verifyText(out, want)
			}
		}
		os.Remove(out)
		if err != nil {
			r.fail("job %d: %v", i, err)
			continue
		}
		if l.writes != planWrites || l.k != k {
			mismatches++
			r.fail("job %d: %d block writes at k=%d, plan says %d at k=%d", i, l.writes, l.k, planWrites, k)
			continue
		}
		ledger = l
		if i == 0 {
			continue
		}
		walls = append(walls, ms(c.wall))
		stage = append(stage, ms(l.stage))
		sortMS = append(sortMS, ms(l.form+l.merge))
		other = append(other, ms(c.wall-l.stage-l.form-l.merge))
		rss = max(rss, c.rssMB)
	}
	verifiedRecs := float64(len(walls) * w.n)
	r.e2e["throughput_mrec_s"] = verifiedRecs / 1e6 / busy.Seconds()
	r.e2e["job_p50_ms"] = median(walls)
	r.e2e["peak_rss_mb"] = rss
	r.e2e["setup_s"] = median(setups)
	ioCost := float64(ledger.reads) + w.omega*float64(ledger.writes)
	note("job walls ms: %.0f", walls)
	note("timed jobs verified: %d (after one warm-up job); k=%d, %d runs, %d merge levels", len(walls), ledger.k, ledger.runs, ledger.levels)
	r.figure("block_reads", float64(ledger.reads))
	r.figure("block_writes", float64(ledger.writes))
	r.figure("io_cost", ioCost) // R + omega*W
	r.figure("ledger.mismatches", float64(mismatches))
	if !r.trace {
		return nil
	}

	r.layer["cli.stage_ms"] = median(stage)
	r.layer["cli.sort_ms"] = median(sortMS)
	r.layer["cli.other_ms"] = median(other)
	// The CLI prints its phase ledger on every run, so the traced run adds
	// no instrumentation to the timed child: bench.trace_overhead_frac
	// stays 0 by construction.
	return r.probeLayers(engineShape{n: w.n, mem: mem, omega: w.omega})
}
