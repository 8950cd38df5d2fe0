package main

// The served workload: one asymsortd under two open-loop client streams,
// bulk sorts that go to the external engine and small urgent sorts that
// go native, each stream on its own connection.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"asymsort/internal/wire"
	"asymsort/internal/xrand"
)

// A stream sends one job at the start of every period. Job sizes are an
// evenly spaced grid over the class's range in a fixed shuffled order:
// the schedule is part of the workload, so every seed offers the same
// load and draws only the keys.
type streamSpec struct {
	class      string
	period     time.Duration
	minN, maxN int
	// centered puts every other job at the middle of the range, so the
	// class median is taken over several jobs of one size rather than
	// over the two jobs that happen to straddle it.
	centered bool
	priority string // X-Asymsortd-Priority, "" = none
	deadline string // X-Asymsortd-Deadline, "" = none
}

var (
	bulkStream  = streamSpec{class: "bulk", period: 2 * time.Second, minN: 300_000, maxN: 1_500_000, centered: true}
	smallStream = streamSpec{class: "small", period: 200 * time.Millisecond, minN: 10_000, maxN: 60_000,
		priority: "4", deadline: "1s"}
)

// clientJob is one request of a load: its input, and what the client saw.
type clientJob struct {
	id       int
	spec     *streamSpec
	due      time.Duration // send time, as an offset from the load's start
	n        int
	in       string
	want     checksum
	out      string
	lat      time.Duration // due time (or send, in a closed loop) to last byte
	lag      time.Duration // how late the generator sent it
	err      error
	ledger   bool // the response carried an ext write ledger
	ledgerOK bool
}

// schedule builds one stream's jobs for a load of the given length.
func schedule(spec *streamSpec, tag uint64, seconds time.Duration, firstID int) []*clientJob {
	count := max(2, int(math.Round(seconds.Seconds()/spec.period.Seconds())))
	grid := count
	if spec.centered {
		grid = (count + 1) / 2
	}
	sizes := make([]int, count)
	for i := range sizes {
		sizes[i] = (spec.minN + spec.maxN) / 2
		if i < grid {
			sizes[i] = spec.minN + i*(spec.maxN-spec.minN)/max(1, grid-1)
		}
	}
	rng := xrand.New(tag)
	for i := count - 1; i > 0; i-- {
		j := int(rng.Next() % uint64(i+1))
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	jobs := make([]*clientJob, count)
	for i := range jobs {
		jobs[i] = &clientJob{id: firstID + i, spec: spec, due: time.Duration(i) * spec.period, n: sizes[i]}
	}
	return jobs
}

// writeInputs writes every job's input frame and remembers its digest.
func (r *run) writeInputs(jobs []*clientJob) error {
	for _, j := range jobs {
		recs := records(r.seed, uint64(100+j.id), j.n)
		j.want = digest(recs, false)
		j.in = filepath.Join(r.dir, fmt.Sprintf("in%d", j.id))
		if err := writeFrame(j.in, recs); err != nil {
			return err
		}
	}
	return nil
}

// post sends one job's input frame to url/sort and saves the response
// body; it returns when the last byte has arrived.
func post(client *http.Client, url string, j *clientJob) error {
	f, err := os.Open(j.in)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/sort?model=auto", f)
	if err != nil {
		return err
	}
	req.ContentLength = st.Size()
	req.Header.Set("Content-Type", wire.ContentType)
	if j.spec.priority != "" {
		req.Header.Set("X-Asymsortd-Priority", j.spec.priority)
	}
	if j.spec.deadline != "" {
		req.Header.Set("X-Asymsortd-Deadline", j.spec.deadline)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %s: %s", resp.Status, msg)
	}
	out, err := os.Create(j.out)
	if err != nil {
		return err
	}
	defer out.Close()
	if _, err := io.Copy(out, resp.Body); err != nil {
		return fmt.Errorf("reading response: %w", err)
	}
	writes, planWrites := resp.Header.Get("X-Asymsortd-Writes"), resp.Header.Get("X-Asymsortd-Plan-Writes")
	j.ledger = writes != "" || planWrites != ""
	j.ledgerOK = writes == planWrites
	return out.Close()
}

// newClient is one stream's HTTP client: a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// openLoop plays each stream's schedule against url, one goroutine and
// one connection per stream. A job due while its stream is still busy is
// sent as soon as the previous one finishes; its latency counts from its
// due time. It returns the wall from the load's start to the last byte.
func openLoop(url string, streams [][]*clientJob, outDir string) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, jobs := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for _, j := range jobs {
				due := start.Add(j.due)
				time.Sleep(time.Until(due))
				j.lag = max(0, time.Since(due))
				j.out = filepath.Join(outDir, fmt.Sprintf("out%d", j.id))
				j.err = post(client, url, j)
				j.lat = time.Since(due)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// verifyJobs checks every job's response outside the timed span and
// counts what the client saw: a failed request, an unverified output, or
// a write ledger that disagrees with its plan is a failed job.
func (r *run) verifyJobs(jobs []*clientJob) (mismatches int) {
	for _, j := range jobs {
		r.attempted++
		if j.err == nil {
			j.err = verifyFrame(j.out, j.want)
		}
		if j.err == nil && j.ledger && !j.ledgerOK {
			mismatches++
			j.err = fmt.Errorf("X-Asymsortd-Writes differs from X-Asymsortd-Plan-Writes")
		}
		os.Remove(j.out)
		if j.err != nil {
			r.fail("%s job %d (n=%d): %v", j.spec.class, j.id, j.n, j.err)
		}
	}
	return mismatches
}

// latencies returns the verified jobs' latencies in ms, their generator
// lags in ms, and their record total.
func latencies(jobs []*clientJob) (lat, lag []float64, recs int) {
	for _, j := range jobs {
		if j.err == nil {
			lat = append(lat, ms(j.lat))
			lag = append(lag, ms(j.lag))
			recs += j.n
		}
	}
	return lat, lag, recs
}

// serveJob is one job of a solo daemon's /stats.
type serveJob struct {
	ID       int     `json:"id"`
	State    string  `json:"state"`
	Model    string  `json:"model"`
	N        int     `json:"n"`
	MemGrant int     `json:"mem_grant"`
	Reads    uint64  `json:"reads"`
	Writes   uint64  `json:"writes"`
	K        int     `json:"k"`
	Omega    float64 `json:"omega"`
	QueueMS  float64 `json:"queue_ms"`
	StageMS  float64 `json:"stage_ms"`
	SortMS   float64 `json:"sort_ms"`
	StreamMS float64 `json:"stream_ms"`
}

type serveStats struct {
	Jobs []serveJob `json:"jobs"`
}

func (s *serveStats) live() bool {
	return slices.ContainsFunc(s.Jobs, func(j serveJob) bool {
		switch j.State {
		case "staging", "queued", "running", "streaming":
			return true
		}
		return false
	})
}

// noteOmegaK prints each ext job's effective ω and k in job order, so
// drift of the live ω estimate within a run stays visible.
func noteOmegaK(name string, jobs []serveJob) {
	line := ""
	for _, j := range jobs {
		if j.Model == "ext" {
			line += fmt.Sprintf(" %d:%.2f/%d", j.ID, j.Omega, j.K)
		}
	}
	note("%s ext jobs id:omega/k:%s", name, line)
}

// fillServeLayers sets the serve.* metrics from the jobs of one or more
// daemons' settled /stats.
func (r *run) fillServeLayers(jobs []serveJob) {
	var stage, queue, sortMS, stream, grant []float64
	var native, recs int
	var reads, writes uint64
	omegaMin, omegaMax := math.Inf(1), 0.0
	ks := map[int]bool{}
	for _, j := range jobs {
		stage = append(stage, j.StageMS)
		queue = append(queue, j.QueueMS)
		sortMS = append(sortMS, j.SortMS)
		stream = append(stream, j.StreamMS)
		grant = append(grant, float64(j.MemGrant))
		recs += j.N
		reads += j.Reads
		writes += j.Writes
		switch j.Model {
		case "native":
			native++
		case "ext":
			omegaMin, omegaMax = min(omegaMin, j.Omega), max(omegaMax, j.Omega)
			ks[j.K] = true
		}
	}
	if len(jobs) == 0 {
		return
	}
	for name, xs := range map[string][]float64{"stage": stage, "queue": queue, "sort": sortMS, "stream": stream} {
		r.layer["serve."+name+"_ms_p50"] = median(xs)
		r.layer["serve."+name+"_ms_p90"] = quantile(xs, 0.9)
	}
	r.layer["serve.native_frac"] = float64(native) / float64(len(jobs))
	r.layer["serve.grant_recs_p50"] = median(grant)
	r.layer["serve.block_reads_per_rec"] = float64(reads) / float64(recs)
	r.layer["serve.block_writes_per_rec"] = float64(writes) / float64(recs)
	if len(ks) > 0 {
		r.layer["serve.omega_effective_min"] = omegaMin
		r.layer["serve.omega_effective_max"] = omegaMax
	}
	r.layer["serve.k_distinct"] = float64(len(ks))
}

// servedDaemonArgs are the solo daemon's flags for one spill directory.
func servedDaemonArgs(spill string) []string {
	return []string{"-addr", "127.0.0.1:0", "-mem", "8MB", "-procs", "2", "-tmpdir", spill}
}

// servedLoad starts a daemon in a fresh spill directory, plays the
// streams against it, waits for its /stats to settle, and stops it.
func (r *run) servedLoad(name string, streams [][]*clientJob, traced bool) (wall time.Duration, d *daemon, st *serveStats, err error) {
	base := filepath.Join(r.dir, name)
	spill, outs := filepath.Join(base, "spill"), filepath.Join(base, "out")
	for _, dir := range []string{spill, outs} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, nil, nil, err
		}
	}
	args := servedDaemonArgs(spill)
	if traced {
		args = append(args, "-trace-dir", filepath.Join(base, "traces"))
	}
	d, err = r.startDaemon(filepath.Join(base, "daemon.log"), 0, args...)
	if err != nil {
		return 0, nil, nil, err
	}
	defer d.stop()
	wall = openLoop(d.url, streams, outs)
	st, err = settledStats(d.url, (*serveStats).live)
	return wall, d, st, err
}

// runServed drives served_mixed.
func runServed(r *run) error {
	bulk := schedule(&bulkStream, 11, r.seconds, 0)
	small := schedule(&smallStream, 12, r.seconds, len(bulk))
	all := append(slices.Clone(bulk), small...)
	if err := r.writeInputs(all); err != nil {
		return err
	}
	note("schedule: %d bulk jobs (%d-%d records, every %v), %d small jobs (%d-%d records, every %v, priority %s, deadline %s)",
		len(bulk), bulkStream.minN, bulkStream.maxN, bulkStream.period,
		len(small), smallStream.minN, smallStream.maxN, smallStream.period, smallStream.priority, smallStream.deadline)

	// Set-up: launch to ready of daemons that take no load, each in a
	// fresh spill directory, plus the load's own daemon.
	var setups []float64
	for i := range setupLaunches - 1 {
		spill := filepath.Join(r.dir, fmt.Sprintf("setup%d", i))
		if err := os.Mkdir(spill, 0o755); err != nil {
			return err
		}
		d, err := r.startDaemon(spill+".log", 0, servedDaemonArgs(spill)...)
		if err != nil {
			return err
		}
		d.stop()
		setups = append(setups, d.setup.Seconds())
	}

	wall, d, st, err := r.servedLoad("load", [][]*clientJob{bulk, small}, false)
	if err != nil {
		return err
	}
	setups = append(setups, d.setup.Seconds())
	noteOmegaK("untraced", st.Jobs)
	mismatches := r.verifyJobs(all)
	bulkLat, lag, bulkRecs := latencies(bulk)
	smallLat, smallLag, smallRecs := latencies(small)
	lag = append(lag, smallLag...)
	r.e2e["throughput_mrec_s"] = float64(bulkRecs+smallRecs) / 1e6 / wall.Seconds()
	r.e2e["job_p50_ms"] = median(bulkLat)
	r.e2e["peak_rss_mb"] = d.rssMB
	r.e2e["setup_s"] = median(setups)
	line := ""
	for _, j := range bulk {
		line += fmt.Sprintf(" %dk:%.0f", j.n/1000, ms(j.lat))
	}
	note("bulk jobs size:ms%s", line)
	note("verified: %d bulk, %d small", len(bulkLat), len(smallLat))
	r.figure("small_job_p50_ms", median(smallLat))
	r.figure("small_job_p90_ms", quantile(smallLat, 0.9))
	r.figure("ledger.mismatches", float64(mismatches))
	r.figure("bench.gen_lag_p90_ms", quantile(lag, 0.9))
	if !r.trace {
		return nil
	}

	// The traced load replays the same schedule on a daemon exporting
	// every job's trace; its /stats phase walls are the serve layer's
	// numbers and its bulk p50 against the untraced one is the overhead.
	_, _, tst, err := r.servedLoad("traced", [][]*clientJob{bulk, small}, true)
	if err != nil {
		return err
	}
	noteOmegaK("traced", tst.Jobs)
	r.layer["ledger.mismatches"] += float64(r.verifyJobs(all))
	tracedLat, _, _ := latencies(bulk)
	r.layer["bench.trace_overhead_frac"] = median(tracedLat)/median(bulkLat) - 1
	r.fillServeLayers(tst.Jobs)
	return r.probeLayers(engineShape{n: (bulkStream.minN + bulkStream.maxN) / 2, mem: 8 << 20 / 16, omega: 8})
}
