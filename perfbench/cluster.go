package main

// The cluster workload: an asymsortd coordinator in front of two loopback
// asymsortd workers, driven by one closed-loop client.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"asymsort/internal/xrand"
)

// Cluster jobs cycle through four sizes spread evenly over 1-2M records,
// in a seeded order per cycle, and the loop stops at a cycle boundary, so
// every run sorts the same size mix.
var clusterSizes = []int{1_125_000, 1_375_000, 1_625_000, 1_875_000}

var clusterStream = streamSpec{class: "cluster"}

// cluster is one running coordinator and its workers.
type cluster struct {
	workers []*daemon
	coord   *daemon
	setup   time.Duration
}

// startCluster launches two workers (-procs 1 -mem 4MB, each in a fresh
// spill directory) and a coordinator over them, and waits until the
// coordinator reports both workers healthy.
func (r *run) startCluster(dir string, traced bool) (*cluster, error) {
	start := time.Now()
	c := &cluster{}
	var urls []string
	for i := range 2 {
		spill := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		if err := os.MkdirAll(spill, 0o755); err != nil {
			return nil, err
		}
		args := []string{"-addr", "127.0.0.1:0", "-mem", "4MB", "-procs", "1", "-tmpdir", spill}
		if traced {
			args = append(args, "-trace-dir", spill+"-traces")
		}
		w, err := r.startDaemon(spill+".log", 0, args...)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, w)
		urls = append(urls, w.url)
	}
	spill := filepath.Join(dir, "coordinator")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		c.stop()
		return nil, err
	}
	args := []string{"-coordinator", "-workers", strings.Join(urls, ","), "-addr", "127.0.0.1:0", "-tmpdir", spill}
	if traced {
		args = append(args, "-trace-dir", spill+"-traces")
	}
	coord, err := r.startDaemon(spill+".log", len(urls), args...)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.coord = coord
	c.setup = time.Since(start)
	return c, nil
}

// stop stops the coordinator, then the workers, and returns the largest
// peak RSS among them.
func (c *cluster) stop() float64 {
	rss := 0.0
	for _, d := range append([]*daemon{c.coord}, c.workers...) {
		if d != nil {
			d.stop()
			rss = max(rss, d.rssMB)
		}
	}
	return rss
}

type coordJob struct {
	ID        int     `json:"id"`
	State     string  `json:"state"`
	Retries   int     `json:"retries"`
	Hedges    int     `json:"hedges"`
	StageMS   float64 `json:"stage_ms"`
	SplitMS   float64 `json:"split_ms"`
	ScatterMS float64 `json:"scatter_ms"`
	StreamMS  float64 `json:"stream_ms"`
}

type coordStats struct {
	Jobs []coordJob `json:"jobs"`
}

func (s *coordStats) live() bool {
	return slices.ContainsFunc(s.Jobs, func(j coordJob) bool {
		return j.State == "staging" || j.State == "running" || j.State == "streaming"
	})
}

// clusterLoad is what one load against a cluster left behind.
type clusterLoad struct {
	busy    time.Duration // summed job walls
	rssMB   float64
	coord   *coordStats
	workers [][]serveJob
}

// clusterLoop runs jobs against a fresh cluster, one at a time. With
// jobs == nil it generates the cycle schedule until the summed job walls
// reach r.seconds; otherwise it replays the given jobs. It returns with
// the cluster still up and every output still on disk.
func (r *run) clusterLoop(name string, jobs *[]*clientJob, traced bool) (*clusterLoad, *cluster, error) {
	base := filepath.Join(r.dir, name)
	outs := filepath.Join(base, "out")
	if err := os.MkdirAll(outs, 0o755); err != nil {
		return nil, nil, err
	}
	c, err := r.startCluster(base, traced)
	if err != nil {
		return nil, nil, err
	}
	res := &clusterLoad{}
	client := newClient()
	defer client.CloseIdleConnections()
	rng := xrand.New(xrand.Mix(r.seed) ^ xrand.Mix(21))
	replay := *jobs != nil
	var cycle []int
	for i := 0; ; i++ {
		if replay && i == len(*jobs) {
			break
		}
		if !replay && i%len(clusterSizes) == 0 {
			if i > 0 && res.busy >= r.seconds {
				break
			}
			cycle = slices.Clone(clusterSizes)
			for k := len(cycle) - 1; k > 0; k-- {
				j := int(rng.Next() % uint64(k+1))
				cycle[k], cycle[j] = cycle[j], cycle[k]
			}
		}
		if !replay {
			j := &clientJob{id: i, spec: &clusterStream, n: cycle[i%len(cycle)]}
			if err := r.writeInputs([]*clientJob{j}); err != nil {
				c.stop()
				return nil, nil, err
			}
			*jobs = append(*jobs, j)
		}
		j := (*jobs)[i]
		j.out = filepath.Join(outs, fmt.Sprintf("out%d", j.id))
		start := time.Now()
		j.err = post(client, c.coord.url, j)
		j.lat = time.Since(start)
		res.busy += j.lat
	}
	res.coord, err = settledStats(c.coord.url, (*coordStats).live)
	for _, w := range c.workers {
		if err != nil {
			break
		}
		var st *serveStats
		st, err = settledStats(w.url, (*serveStats).live)
		if err == nil {
			res.workers = append(res.workers, st.Jobs)
		}
	}
	if err != nil {
		c.stop()
		return nil, nil, err
	}
	return res, c, nil
}

// shardSkew is the median over cluster jobs of max over mean shard sort
// wall. With one client and one shard per worker, each worker's k-th job
// is a shard of the k-th cluster job; if the workers' job counts say
// otherwise (a retry or a hedge), it falls back to max over mean across
// all shards of the load.
func shardSkew(workers [][]serveJob, jobs int) float64 {
	skew := func(xs []float64) float64 {
		sum, hi := 0.0, 0.0
		for _, x := range xs {
			sum, hi = sum+x, max(hi, x)
		}
		if sum == 0 {
			return 1
		}
		return hi / (sum / float64(len(xs)))
	}
	paired := true
	for _, w := range workers {
		slices.SortFunc(w, func(a, b serveJob) int { return a.ID - b.ID })
		paired = paired && len(w) == jobs
	}
	if !paired {
		var all []float64
		for _, w := range workers {
			for _, j := range w {
				all = append(all, j.SortMS)
			}
		}
		return skew(all)
	}
	var per []float64
	for k := range jobs {
		var shards []float64
		for _, w := range workers {
			shards = append(shards, w[k].SortMS)
		}
		per = append(per, skew(shards))
	}
	return median(per)
}

// soloCheck sends a kept cluster input to one worker directly, a solo
// asymsortd, and checks the two responses carry the same records in the
// same order.
func (r *run) soloCheck(url string, j *clientJob) error {
	solo := *j
	solo.out = j.out + "-solo"
	defer os.Remove(solo.out)
	client := newClient()
	defer client.CloseIdleConnections()
	if err := post(client, url, &solo); err != nil {
		return fmt.Errorf("solo run: %w", err)
	}
	return samePayload(j.out, solo.out)
}

// runCluster drives cluster_sort.
func runCluster(r *run) error {
	// Set-up: launch to ready of clusters that take no load, plus the
	// load's own.
	var setups []float64
	for i := range setupLaunches/2 - 1 {
		c, err := r.startCluster(filepath.Join(r.dir, fmt.Sprintf("setup%d", i)), false)
		if err != nil {
			return err
		}
		c.stop()
		setups = append(setups, c.setup.Seconds())
	}

	var jobs []*clientJob
	load, c, err := r.clusterLoop("load", &jobs, false)
	if err != nil {
		return err
	}
	setups = append(setups, c.setup.Seconds())
	// Sample: the first and the last job, each against a solo worker,
	// before the cluster stops; the other outputs are verified below.
	for _, j := range []*clientJob{jobs[0], jobs[len(jobs)-1]} {
		if j.err == nil {
			if err := r.soloCheck(c.workers[0].url, j); err != nil {
				j.err = fmt.Errorf("cluster output differs from solo asymsortd: %w", err)
			}
		}
	}
	load.rssMB = c.stop()
	mismatches := r.verifyJobs(jobs)
	lat, _, recs := latencies(jobs)
	r.e2e["throughput_mrec_s"] = float64(recs) / 1e6 / load.busy.Seconds()
	r.e2e["job_p50_ms"] = median(lat)
	r.e2e["peak_rss_mb"] = load.rssMB
	r.e2e["setup_s"] = median(setups)
	for i, w := range load.workers {
		noteOmegaK(fmt.Sprintf("worker %d", i), w)
	}
	note("cluster: %d jobs verified of %d; the outputs of jobs 0 and %d were checked against a solo asymsortd run", len(lat), len(jobs), len(jobs)-1)
	r.figure("ledger.mismatches", float64(mismatches))
	if !r.trace {
		return nil
	}

	traced, tc, err := r.clusterLoop("traced", &jobs, true)
	if err != nil {
		return err
	}
	tc.stop()
	r.layer["ledger.mismatches"] += float64(r.verifyJobs(jobs))
	tracedLat, _, _ := latencies(jobs)
	r.layer["bench.trace_overhead_frac"] = median(tracedLat)/median(lat) - 1
	var stage, split, scatter, stream []float64
	retries, hedges := 0, 0
	for _, j := range traced.coord.Jobs {
		stage, split = append(stage, j.StageMS), append(split, j.SplitMS)
		scatter, stream = append(scatter, j.ScatterMS), append(stream, j.StreamMS)
		retries += j.Retries
		hedges += j.Hedges
	}
	r.layer["cluster.stage_ms_p50"] = median(stage)
	r.layer["cluster.split_ms_p50"] = median(split)
	r.layer["cluster.scatter_ms_p50"] = median(scatter)
	r.layer["cluster.stream_ms_p50"] = median(stream)
	r.layer["cluster.retries"] = float64(retries)
	r.layer["cluster.hedges"] = float64(hedges)
	r.layer["cluster.shard_skew"] = shardSkew(traced.workers, len(jobs))
	var workerJobs []serveJob
	for _, w := range traced.workers {
		workerJobs = append(workerJobs, w...)
	}
	r.fillServeLayers(workerJobs)
	// The engine probe sorts the mean shard: half of the mean job.
	meanJob := (clusterSizes[0] + clusterSizes[len(clusterSizes)-1]) / 2
	return r.probeLayers(engineShape{n: meanJob / 2, mem: 4 << 20 / 16, omega: 8})
}
