package extmem

import (
	"fmt"
	"time"

	"asymsort/internal/cost"
	"asymsort/internal/obs"
	"asymsort/internal/seq"
)

// engine executes one plan in two phases: run formation over every
// leaf, then the merge levels bottom-up. Every stage has one
// implementation whose one-worker case is P=1: formation is one pass
// loop that sorts and stores inline on one worker and feeds a
// read→sort→write pipeline on more (runform.go); every merge node runs
// through the range merge, over one range on one worker and over P
// splitter-cut ranges on more (parmerge.go); and every block write goes
// through the asyncWriter, which writes behind on a queued ioSession
// and inline on the one-worker engine's queueless one (aio.go). The
// block-write ledger is identical at every width.
type engine struct {
	cfg     resolved
	plan    *Plan
	stats   IOStats
	in      *BlockFile
	out     *BlockFile
	spill   [2]*BlockFile // ping-pong by level parity; created lazily
	readBuf []seq.Record  // streaming chunk for selection passes
	// ioq is the engine's IO session: queued on a parallel engine (the
	// shared Config.IOQ or a private queue), queueless — every transfer
	// inline — on a one-worker engine.
	ioq *ioSession
	// levelMem is the memory grant the current phase's buffers carve
	// from: the admission-time budget, or — when a Lease is wired — the
	// broker's current grant, re-read at every merge-level boundary. It
	// never alters the plan, only the buffer carve, so the write ledger
	// is grant-trajectory-independent.
	levelMem int
	// arenas holds one reusable record arena per worker (grown lazily,
	// reused across phases and nodes): formation draws its candidate
	// buffers from arenas 0 and 1, and each merge worker carves its
	// readers and write buffers from its own, so a one-worker engine's
	// record storage is the single arena 0.
	arenas [][]seq.Record
	// unmap releases every arena allocRecords mapped outside the heap
	// (a regrown arena's old mapping included), and mapped counts
	// their records.
	unmap  []func()
	mapped int
	report *Report
	// formSpan is the live formation-phase trace span while run
	// formation executes; selection passes hang their per-pass child
	// spans under it. Nil (no tracing) is fine — spans are nil-safe.
	formSpan *obs.Span
}

// arena returns worker i's record arena, grown to at least need
// records.
func (e *engine) arena(i, need int) []seq.Record {
	if len(e.arenas[i]) < need {
		recs, release := allocRecords(need)
		if release != nil {
			e.unmap = append(e.unmap, release)
			e.mapped += need
		}
		e.arenas[i] = recs
	}
	return e.arenas[i]
}

// releaseArenas unmaps the engine's arenas. It may run only once no
// goroutine or queued transfer can touch them.
func (e *engine) releaseArenas() {
	for _, release := range e.unmap {
		release()
	}
	e.unmap, e.arenas = nil, nil
}

// grantMem returns the grant the next phase's buffers carve from:
// cfg.mem, or the lease's current grant clamped to a block multiple of
// at least one block.
func (e *engine) grantMem() int {
	m := e.cfg.mem
	if e.cfg.lease != nil {
		if g := e.cfg.lease.Mem(); g > 0 {
			m = g - g%e.cfg.block
			if m < e.cfg.block {
				m = e.cfg.block
			}
		}
	}
	return m
}

// reportProgress tells a ProgressReporter lease which level the
// engine is entering (see extmem.ProgressReporter). Nil and
// non-reporting leases cost one failed type assertion.
func (e *engine) reportProgress(level int) {
	if pr, ok := e.cfg.lease.(ProgressReporter); ok {
		pr.Progress(level, e.plan.Levels())
	}
}

// canceled polls the lease's revocation channel; engines call it at
// block/chunk granularity on every long-running loop.
func (e *engine) canceled() error {
	if e.cfg.lease == nil {
		return nil
	}
	select {
	case <-e.cfg.lease.Canceled():
		return ErrCanceled
	default:
		return nil
	}
}

// Sort sorts the record file at inPath into a fresh record file at
// outPath under cfg's memory budget. Spill files are created in
// cfg.TmpDir and removed before returning, error or not.
func Sort(cfg Config, inPath, outPath string) (*Report, error) {
	e := new(engine)
	rep, err := e.sort(cfg, inPath, outPath)
	// Not deferred: sort returns only after joining every goroutine and
	// draining every transfer that used an arena, but a panic can leave
	// a worker running, so a panicking sort leaves its arenas mapped.
	e.releaseArenas()
	return rep, err
}

// sort is Sort on a fresh engine, minus releasing the arenas.
func (e *engine) sort(cfg Config, inPath, outPath string) (*Report, error) {
	r, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	e.cfg = r
	in, err := OpenBlockFile(inPath, r.block, &e.stats)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	e.in = in
	out, err := CreateBlockFile(outPath, r.block, &e.stats)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	e.out = out

	// The plan — and with it the report and the write ledger — covers
	// the payload records after any InSkip prefix; plan offsets are
	// payload-relative, shifted onto the input file only at its three
	// read sites (runform.go).
	n := in.Len() - r.inSkip
	if n < 0 {
		return nil, fmt.Errorf("extmem: InSkip %d exceeds input length %d records", r.inSkip, in.Len())
	}
	e.plan = NewPlan(n, r.mem, r.block, r.k, r.fanIn)
	e.report = &Report{
		N: n, Mem: r.mem, Block: r.block, K: r.k, FanIn: r.fanIn,
		Runs: e.plan.Runs(), Width: e.plan.Width(), Levels: e.plan.Levels(), Omega: r.omega,
		Procs:      r.procs,
		LevelIO:    make([]cost.Snapshot, e.plan.Levels()+1),
		PlanWrites: e.plan.TotalWrites(),
	}
	e.arenas = make([][]seq.Record, r.procs)
	e.levelMem = r.mem
	chunk := formChunk
	if chunk < r.block {
		chunk = r.block
	}
	e.readBuf = make([]seq.Record, 0, chunk)

	// Cleanup defers run LIFO: the ioq is drained and joined first, so
	// no async transfer is in flight when the spill files are removed.
	defer func() {
		for _, sp := range e.spill {
			if sp != nil {
				sp.Remove()
			}
		}
	}()
	e.ioq = &ioSession{}
	if r.procs > 1 {
		e.ioq.q = r.ioq
		if e.ioq.q == nil {
			e.ioq.q = NewIOQueue(r.procs)
			defer e.ioq.q.Close()
		}
	}
	defer e.ioq.drain()
	if err := e.run(); err != nil {
		return nil, err
	}
	e.report.Total = e.stats.Snapshot()
	e.report.OutN = e.out.Len()
	if r.post != nil {
		// The streamed root wrote ⌈OutN/B⌉ blocks in place of the plan's
		// ⌈N/B⌉ root-level blocks; adjust the prediction so the
		// measured-equals-planned identity stays exact.
		rootBlocks := uint64((n + r.block - 1) / r.block)
		outBlocks := uint64((e.report.OutN + r.block - 1) / r.block)
		e.report.PlanWrites = e.report.PlanWrites - rootBlocks + outBlocks
	}
	return e.report, nil
}

// run executes the plan phase by phase: all leaves, then each merge
// level left to right.
func (e *engine) run() error {
	e.reportProgress(0)
	leaves, byLevel := e.plan.phases()
	if len(leaves) > 0 || e.cfg.post != nil {
		base := e.stats.Snapshot()
		e.formSpan = e.cfg.span.Child("form")
		start := time.Now()
		var err error
		if e.cfg.post != nil && e.plan.Levels() == 0 {
			// Single-run plan: the root is a leaf, so formation and the
			// post-pass fuse (stream.go).
			err = e.formRootStreamed(leaves)
			e.formSpan.Set(obs.Attr{Key: "post", Val: 1})
		} else {
			err = e.formLeaves(leaves)
		}
		e.report.FormTime += time.Since(start)
		e.addLevel(0, base)
		e.endFormSpan(base)
		if err != nil {
			return err
		}
	}
	for lvl := 1; lvl < len(byLevel); lvl++ {
		// The level boundary is where a broker rebalance lands: report
		// progress, then re-read the lease's grant and carve this
		// level's buffers from it.
		e.reportProgress(lvl)
		e.levelMem = e.grantMem()
		if err := e.mergeLevel(lvl, byLevel[lvl]); err != nil {
			return err
		}
	}
	return nil
}

// endFormSpan closes the formation-phase span with the level-0 ledger
// delta as attributes.
func (e *engine) endFormSpan(base cost.Snapshot) {
	sp := e.formSpan
	e.formSpan = nil
	d := e.stats.Snapshot().Sub(base)
	sp.Set(
		obs.Attr{Key: "level", Val: 0},
		obs.Attr{Key: "runs", Val: int64(e.plan.Runs())},
		obs.Attr{Key: "reads", Val: int64(d.Reads)},
		obs.Attr{Key: "writes", Val: int64(d.Writes)},
	)
	sp.End()
}

// mergeLevel merges every node of one level, bracketed by a "merge"
// trace span that carries the level's read/write ledger delta and
// fan-in as attributes — the per-level breakdown the /stats and trace
// exports surface. The span is observational only; the ledger is still
// charged through addLevel exactly as before.
func (e *engine) mergeLevel(lvl int, nodes []*planNode) (err error) {
	base := e.stats.Snapshot()
	sp := e.cfg.span.Child("merge")
	start := time.Now()
	defer func() {
		e.report.MergeTime += time.Since(start)
		e.addLevel(lvl, base)
		d := e.stats.Snapshot().Sub(base)
		fanIn := 0
		for _, nd := range nodes {
			if f := len(nd.kids); f > fanIn {
				fanIn = f
			}
		}
		sp.Set(
			obs.Attr{Key: "level", Val: int64(lvl)},
			obs.Attr{Key: "nodes", Val: int64(len(nodes))},
			obs.Attr{Key: "fanin", Val: int64(fanIn)},
			obs.Attr{Key: "reads", Val: int64(d.Reads)},
			obs.Attr{Key: "writes", Val: int64(d.Writes)},
		)
		if lvl == e.plan.Levels() && e.cfg.post != nil {
			sp.Set(obs.Attr{Key: "post", Val: 1})
		}
		sp.End()
	}()
	for _, nd := range nodes {
		if err := e.canceled(); err != nil {
			return err
		}
		if err := e.mergeNode(nd, e.mergeProcs(nd)); err != nil {
			return err
		}
		// The children's block indexes were consumed by this merge.
		for _, kid := range nd.kids {
			kid.index = nil
		}
	}
	return nil
}

// dst returns the file a node's output lands in: the final output for
// the root, otherwise the spill file of the node's level parity. Spill
// files mirror the input's layout — every node writes its region at
// its own input offsets — so a parent at level ℓ reads all its
// children from the single parity-(ℓ-1) spill file. A same-parity
// region is only ever overwritten two levels up, by which time its
// contents (the grandchildren's runs) have been consumed. Two spill
// files bound the engine's fd count at four (input, output, spills)
// regardless of fan-in, where one-file-per-run would exhaust the fd
// limit at the canonical kM/B fan-in. It is called only from the
// coordinator goroutine, never from pipeline or merge workers.
func (e *engine) dst(nd *planNode) (*BlockFile, error) {
	if nd == e.plan.root {
		return e.out, nil
	}
	parity := nd.level % 2
	if e.spill[parity] == nil {
		bf, err := createTempBlockFile(e.cfg.tmpDir,
			fmt.Sprintf("asymsort-ext-spill%d-*", parity), e.cfg.block, &e.stats)
		if err != nil {
			return nil, fmt.Errorf("extmem: cannot create spill file: %w", err)
		}
		e.spill[parity] = bf
	}
	return e.spill[parity], nil
}

func (e *engine) addLevel(level int, base cost.Snapshot) {
	e.report.LevelIO[level] = e.report.LevelIO[level].Add(e.stats.Snapshot().Sub(base))
}

// captureIndex reports whether nd's output should record its per-block
// first records: only a parallel engine consumes them, and only for
// nodes that have a parent merge to feed.
func (e *engine) captureIndex(nd *planNode) bool {
	return e.cfg.procs > 1 && nd != e.plan.root
}

// newIndex allocates nd's block index (see planNode.index).
func newIndex(nd *planNode, block int) []seq.Record {
	return make([]seq.Record, (nd.len()+block-1)/block)
}
