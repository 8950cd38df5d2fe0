// Package extmem is a real external-memory sort engine: it sorts
// on-disk record files larger than RAM under a configurable memory
// budget, realizing AEM-MERGESORT (Algorithm 2 / Section 4.1 of the
// paper) on actual files instead of the simulated ledger of
// internal/aem + internal/core/aemsort.
//
// The engine has three layers:
//
//   - BlockFile (blockfile.go): an instrumented block-IO layer over
//     fixed-width binary record files. Every read and write is charged
//     to an IOStats ledger at block granularity — the number of
//     B-record device blocks the transfer touches — so the engine's
//     measured IO is directly comparable to the simulated AEM ledger.
//   - Run formation (runform.go): the leaves of the merge tree are
//     sorted runs spilled to a temp file. A leaf of up to kM records is
//     formed with the Lemma 4.2 selection sort under the M-record
//     budget: up to k read passes over the leaf, each retaining the M
//     smallest records above the previous pass's watermark, sorting the
//     retained set in parallel with rt.SortRecords on the rt native
//     pool, and writing it out once. The first pass selects through a
//     bounded max-heap while it counts the leaf into a key histogram;
//     the later passes route by that histogram and heap only one bucket.
//     One pass loop serves every worker count: on one worker it sorts
//     and writes each set inline; on a parallel pool (Config.Procs > 1)
//     it feeds a three-stage read→sort→write pipeline across the
//     leaves, so the device and the cores stay busy simultaneously.
//   - K-way merge (losertree.go, merge.go, parmerge.go): each internal
//     node of the tree merges its children's runs through loser-tree
//     selectors with per-run block refill buffers and a buffered block
//     writer. The node is cut into P disjoint key ranges by exact
//     splitter cuts over the runs' in-memory block indexes — one whole
//     range on one worker — and each pool worker merges its range
//     through a private loser tree into a private output extent; the
//     sub-block fragments at interior extent boundaries are stitched by
//     the coordinator so no device block is ever written twice.
//   - Async IO (aio.go): on a parallel pool, a small pool of IO worker
//     goroutines under BlockFile issues the merge readers' prefetches
//     and the writers' write-behind flushes, overlapping block transfer
//     with compute; a one-worker engine's writers call WriteAt inline.
//     Pending transfers over adjacent extents of the same file in the
//     same direction coalesce into single vectored preadv/pwritev
//     syscalls (vectored_linux.go). The async façades issue exactly
//     the spans their synchronous counterparts would, and a coalesced
//     chain charges IOStats span by span, so neither overlapping nor
//     coalescing ever changes the ledger.
//
// Crucially, the merge tree the engine executes is the partition tree
// AEM-MERGESORT builds for the same (n, M, B, k) — top-down,
// block-granularity partition into at most l = kM/B subarrays, leaves
// of at most kM records — except that a node whose children are all
// leaves takes the fewest leaves its pass budget fits rather than up
// to kM/B (plan.go). Because both sides write each node's output once
// through block-aligned buffers, and the narrowing moves no node
// between levels, the engine's measured block-write count equals the
// simulated ledger's write count level-for-level, for every
// configuration AND every worker count — parallel workers write only
// whole private blocks, boundary fragments are stitched once — and the
// integration tests assert this. Reads
// differ in the constant (the simulator re-reads run blocks across
// queue rounds, the engine re-reads them across prefetch refills, and
// the parallel merge adds at most P-1 splitter-probe block reads per
// run) but both realize the ~k× read multiplier that buys the
// shallower recursion.
//
// The read multiplier k is chosen from the paper's Appendix A rule
// k/log k < ω/log(M/B), where ω is the measured (or configured) ratio
// of a block write's cost to a block read's on the target device — see
// the authoritative discussion of ω's two roles on rt.Ctx.Omega.
//
// Records must be pairwise distinct under seq.TotalLess whenever a
// leaf exceeds M records (k ≥ 2): the multi-pass selection watermark,
// like the simulator's, drops exact (Key, Val) duplicates. Every
// workload generator and the cmd/asymsort text loader produce unique
// pairs (payload = input index).
package extmem

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"asymsort/internal/cost"
	"asymsort/internal/obs"
	"asymsort/internal/rt"
)

// ErrCanceled is returned by Sort when its Lease is revoked mid-run.
// The engine aborts at the next block boundary and removes its spill
// files before returning, so a canceled job leaves nothing behind.
var ErrCanceled = errors.New("extmem: sort canceled (lease revoked)")

// Lease is an external budget broker's handle on a running sort (see
// internal/serve). Config.Mem remains the admission-time grant that
// fixes the merge plan — and with it the block-write ledger — but a
// non-nil Lease lets the broker resize the job's resident memory while
// it runs: the engine calls Mem at every merge-level boundary and
// carves that level's reader/writer buffers from the returned grant
// instead of Config.Mem. A shrunken grant trades reads (smaller
// prefetch buffers refill more often, raising the read amplification
// beyond the planned ≈k×); a grown grant buys them back. Writes are
// unaffected: every node still writes its output exactly once through
// block-aligned buffers, so the ledger identity with the simulated AEM
// machine holds at any grant trajectory.
//
// Both methods are called from engine goroutines and must be safe for
// concurrent use.
type Lease interface {
	// Mem reports the job's current memory grant in records. The engine
	// clamps it to a block multiple of at least one block. Returning a
	// non-positive grant means "keep the admission-time budget".
	Mem() int
	// Canceled returns a channel that is closed when the grant is
	// revoked. The engine polls it at block granularity and aborts with
	// ErrCanceled.
	Canceled() <-chan struct{}
}

// ProgressReporter is optionally implemented by a Lease: the engine
// reports (level, levels) at every phase boundary — level 0 after
// planning, then each merge level ℓ ∈ [1, levels] as it is entered —
// so a broker can steer its grant trajectory by observed merge
// progress (a job inside its final level has no boundary left at
// which to acknowledge a resize). Purely observational; must be safe
// for concurrent use.
type ProgressReporter interface {
	Progress(level, levels int)
}

// IOStats is a concurrency-safe block-IO ledger. BlockFiles constructed
// with the same *IOStats share one ledger, mirroring how all Files of
// one aem.Machine share its counter.
type IOStats struct {
	reads  atomic.Uint64
	writes atomic.Uint64
}

// Snapshot freezes the current totals.
func (s *IOStats) Snapshot() cost.Snapshot {
	return cost.Snapshot{Reads: s.reads.Load(), Writes: s.writes.Load()}
}

// Config parameterizes one external sort.
type Config struct {
	// Mem is the primary-memory budget in records (the model's M). It is
	// rounded down to a multiple of Block and must leave at least one
	// block. The engine runs the paper's P-processor machine (§3), where
	// every processor owns a private memory of size M: each worker's
	// record buffers live in one M-record arena, which run formation
	// uses as a candidate set and each merge carves into the per-run
	// refill buffers plus the write buffer. On Linux the arenas are
	// mapped outside the Go heap and unmapped when Sort returns, so a
	// finished sort's M records leave the process at once instead of
	// waiting as garbage. A one-worker engine (P=1)
	// therefore keeps its resident record storage at M throughout;
	// outside the budget ride only what the simulator's slackBlocks
	// also grants — O(fan-in) metadata, a streaming read chunk, the
	// bounded encode/decode scratch pool — plus the selection passes'
	// 64 KiB key histogram. On a parallel engine the
	// formation pipeline circulates two candidate buffers (rt.SortRecords
	// sorts them in place), each of the P merge workers carves its f
	// run shares and its two write-behind buffers from its own M
	// (aggregate merge residency ≤ P·M), and each run keeps a
	// one-record-per-block cut index in memory for the parent's
	// splitter search.
	Mem int
	// Block is the device block/page size in records (the model's B).
	Block int
	// K is the read multiplier: leaves hold up to K*Mem records and the
	// merge fan-in bound widens to K*Mem/Block, trading up to K read
	// passes per level for a kM/B-times-shallower tree. 0 means choose
	// K from Omega by the Appendix A rule (ChooseK).
	K int
	// Omega is the caller's block-write/block-read cost ratio for the
	// target device (see rt.Ctx.Omega for the two roles of ω; this is
	// the measured-device-ratio role). It is consumed only when K == 0
	// and by cost reporting; nothing is charged with it.
	Omega float64
	// FanIn overrides the merge fan-in bound l (default K*Mem/Block,
	// min 2): the upper bound on any node's width, which the planner
	// undercuts wherever fewer leaves fit (see NewPlan). Overriding it
	// breaks the write-count identity with the simulated AEM ledger,
	// which is defined at l = kM/B.
	FanIn int
	// TmpDir is where spill files live. Empty means os.TempDir(). The
	// engine always removes its spill files before returning.
	TmpDir string
	// Procs is the engine's worker count (0 = GOMAXPROCS): the pool
	// width of the in-memory run sorts, the formation pipeline, the
	// splitter-partitioned merge, and the async IO layer. Procs == 1 is
	// the same engine's one-worker case — one goroutine, one M-record
	// arena, inline IO — whose wall-clock is the baseline the parallel
	// speedup is measured against. Any Procs produces the identical
	// output file and the identical block-write ledger.
	Procs int
	// Pool, when non-nil, supplies the engine's worker pool instead of a
	// fresh rt.NewPool(Procs): the serve broker lends each job a
	// rt.Pool.Split slice of one process-wide pool, so concurrent
	// engines draw spawn tokens from a shared bucket and can never
	// oversubscribe the machine in aggregate. Procs is ignored when Pool
	// is set; the engine's width is Pool.Procs().
	Pool *rt.Pool
	// IOQ, when non-nil, supplies a shared pool of async-IO workers
	// (NewIOQueue) instead of a per-engine one. The engine drains its
	// own in-flight transfers before removing its spill files but never
	// closes a shared queue — the owner (the serve broker) does. Ignored
	// by a one-worker engine, whose transfers all run inline.
	IOQ *IOQueue
	// Lease, when non-nil, lets an external budget broker resize the
	// running job's memory between merge levels and cancel it — see the
	// Lease interface. The merge plan (and the write ledger) stays fixed
	// at the admission-time Mem.
	Lease Lease
	// Post, when non-nil, is the streaming post-pass hook (see
	// Streamer): the final sorted stream is folded through it before it
	// reaches the output file, fusing order-dependent reductions
	// (reduce-by-key, dedup) into the sort's last pass. The merge plan
	// is unchanged, but the root level writes only the emitted records,
	// and Report.PlanWrites is adjusted to the emitted output size so
	// the measured-equals-planned identity still holds. The root's
	// merge runs as one range (one worker) when Post is set; formation
	// and the lower levels keep their full width. Nil leaves the sort
	// path byte-identical.
	Post Streamer
	// Span, when non-nil, is the parent trace span the engine hangs its
	// phase spans under: one "form" span for run formation (with per-pass
	// child spans) and one "merge" span per merge level, each carrying its
	// level's read/write ledger delta and fan-in as attributes. Purely
	// observational — the same phase-boundary seam as Lease, so the plan
	// and the write ledger are untouched. Nil (the default) records
	// nothing; obs spans are nil-safe, so the engine never branches on it.
	Span *obs.Span
	// InSkip is how many leading records of the input file to ignore —
	// the zero-copy handoff for inputs that carry a whole-record wire
	// header (a contiguous internal/wire frame is a valid record file
	// whose first 16-byte slot is the header), so a caller can hand the
	// frame file itself to the engine instead of spooling its payload
	// into a fresh staging copy. The plan, the report, and the write
	// ledger are all computed on the n = Len−InSkip payload records;
	// only the input-read offsets shift. Output and spill files never
	// carry the skip.
	InSkip int
}

// resolved is a validated Config with derived parameters filled in.
type resolved struct {
	mem, block, k, fanIn int
	omega                float64
	tmpDir               string
	pool                 *rt.Pool
	procs                int
	ioq                  *IOQueue // shared queue; nil = engine owns one
	lease                Lease
	inSkip               int
	post                 Streamer
	span                 *obs.Span
}

func (c Config) resolve() (resolved, error) {
	r := resolved{block: c.Block, omega: c.Omega}
	// Degenerate ω never reaches ChooseK or the cost report: NaN and
	// non-positive values mean "no usable write premium" (ω = 1, the
	// classical regime), and +Inf clamps to a large finite premium so
	// fan-in and Cost stay finite.
	if math.IsNaN(r.omega) || r.omega <= 0 {
		r.omega = 1
	} else if math.IsInf(r.omega, 1) {
		r.omega = 1e9
	}
	if c.Block < 1 {
		return r, fmt.Errorf("extmem: Block must be >= 1 records, got %d", c.Block)
	}
	r.mem = c.Mem - c.Mem%c.Block
	if r.mem < c.Block {
		return r, fmt.Errorf("extmem: Mem %d leaves no whole block of %d records", c.Mem, c.Block)
	}
	r.k = c.K
	if r.k == 0 {
		r.k = ChooseK(r.omega, r.mem, r.block)
	}
	if r.k < 1 {
		return r, fmt.Errorf("extmem: K must be >= 1, got %d", r.k)
	}
	r.fanIn = c.FanIn
	if r.fanIn == 0 {
		r.fanIn = r.k * r.mem / r.block
	}
	if r.fanIn < 2 {
		r.fanIn = 2
	}
	r.tmpDir = c.TmpDir
	if r.tmpDir == "" {
		r.tmpDir = os.TempDir()
	}
	r.pool = c.Pool
	if r.pool == nil {
		r.pool = rt.NewPool(c.Procs)
	}
	r.procs = r.pool.Procs()
	r.ioq = c.IOQ
	r.lease = c.Lease
	if c.InSkip < 0 {
		return r, fmt.Errorf("extmem: InSkip must be >= 0, got %d", c.InSkip)
	}
	r.inSkip = c.InSkip
	r.post = c.Post
	r.span = c.Span
	return r, nil
}

// ChooseK returns the largest read multiplier k the Appendix A rule
// k/log₂k < ω/log₂(M/B) admits (k = 1 — the classical EM mergesort —
// when no k ≥ 2 qualifies). Note k/log₂k is not monotone below k = 4
// (its minimum is at k = 3), so the scan checks every candidate.
// ChooseK is exported and callable with arbitrary arguments, so every
// degenerate input has a defined answer: block < 1 or mem ≤ block
// (lg(M/B) ≤ 0, where the rule's bound would divide by zero or go
// negative) returns 1, as do NaN and non-positive ω (no write premium
// to trade reads against). ω = +Inf admits every candidate and
// returns the scan cap 512. The result is always ≥ 1.
func ChooseK(omega float64, mem, block int) int {
	if block < 1 || mem <= block {
		// lg(M/B) ≤ 0: the rule's bound is undefined (the recursion is
		// already as shallow as a one-block memory allows) and widening
		// only multiplies reads, so keep the classical sort.
		return 1
	}
	if math.IsNaN(omega) || omega <= 0 {
		// NaN would make every comparison below false only by accident;
		// make the classical fallback explicit.
		return 1
	}
	bound := omega / math.Log2(float64(mem)/float64(block))
	best := 1
	for k := 2; k <= 512; k++ {
		if float64(k)/math.Log2(float64(k)) < bound {
			best = k
		}
	}
	return best
}

// Report summarizes one external sort.
type Report struct {
	N int // input records sorted
	// OutN is the record count of the output file: N for a plain sort,
	// the emitted count when a Post streamer reduced the stream.
	OutN  int
	Mem   int // effective memory budget in records
	Block int // block size in records
	K     int // read multiplier
	FanIn int // merge fan-in bound l
	Runs  int // leaf runs formed
	// Width is the widest merge the plan executes: the largest child
	// count of any merge node (≤ FanIn), 0 when there is no merge.
	Width int
	// Levels is the number of merge levels (write passes beyond run
	// formation).
	Levels int
	// LevelIO[0] is run formation (all leaves); LevelIO[ℓ] for ℓ ≥ 1 is
	// merge level ℓ, counting bottom-up so LevelIO[Levels] is the final
	// pass into the output file.
	LevelIO []cost.Snapshot
	// Total is the engine's whole ledger: sum of LevelIO.
	Total cost.Snapshot
	// PlanWrites is the executed plan's predicted block-write count
	// (Plan.TotalWrites). At the canonical fan-in kM/B it equals the
	// simulated AEM machine's write ledger for the same (n, M, B, k) —
	// the identity internal/integration pins — so Total.Writes ==
	// PlanWrites is the per-job check a served sort exposes on /stats.
	// Under a Post streamer the root level's ⌈N/B⌉ is replaced by the
	// ⌈OutN/B⌉ blocks actually emitted, keeping the identity exact for
	// streamed runs too.
	PlanWrites uint64
	// Omega echoes the configured device ratio for cost reporting.
	Omega float64
	// Procs is the engine's resolved worker count (1 = the one-worker
	// engine, the speedup baseline).
	Procs int
	// FormTime and MergeTime split the wall clock between the two
	// stages.
	FormTime  time.Duration
	MergeTime time.Duration
}

// Cost returns Total.Reads + ω·Total.Writes using the configured
// device ratio.
func (r *Report) Cost() float64 {
	return float64(r.Total.Reads) + r.Omega*float64(r.Total.Writes)
}
