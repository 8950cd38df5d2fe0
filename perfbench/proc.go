package main

// Child processes: one-shot CLI runs and long-running daemons. Every child
// is waited for before the benchmark returns; a daemon is stopped with
// SIGTERM (its graceful drain) and killed only if it outlives the grace
// period.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"
)

// setupLaunches is how many times a run launches its surface to measure
// set-up; setup_s is the median.
const setupLaunches = 15

// cliRun is one finished asymsort process.
type cliRun struct {
	wall   time.Duration
	rssMB  float64
	stdout string
}

// runCLI runs asymsort with args and returns its wall time (launch to
// exit), peak RSS, and stdout. A non-zero exit is an error carrying
// stderr.
func (r *run) runCLI(args ...string) (cliRun, error) {
	cmd := exec.Command(filepath.Join(r.bin, "asymsort"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	res := cliRun{wall: time.Since(start), stdout: stdout.String()}
	if err != nil {
		return res, fmt.Errorf("asymsort %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	res.rssMB = maxRSSMB(cmd.ProcessState)
	return res, nil
}

// maxRSSMB is a finished child's peak resident set in MiB.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// daemon is one running asymsortd.
type daemon struct {
	cmd   *exec.Cmd
	url   string
	setup time.Duration // launch until /healthz answered ready
	rssMB float64       // peak RSS, known after stop
}

var listenRE = regexp.MustCompile(`(?:listening|coordinating) on (\S+)`)

// startDaemon launches asymsortd with args (which must include -addr
// 127.0.0.1:0), learns its address from the first stdout line, and waits
// until /healthz reports ready: status "ok" and, for a coordinator,
// wantWorkers healthy workers. Output goes to logPath.
func (r *run) startDaemon(logPath string, wantWorkers int, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(r.bin, "asymsortd"), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	deadline := start.Add(30 * time.Second)
	for d.url == "" || !healthy(d.url, wantWorkers) {
		if time.Now().After(deadline) {
			d.stop()
			out, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("asymsortd %s not ready after 30s: %s", strings.Join(args, " "), out)
		}
		if d.url == "" {
			out, _ := os.ReadFile(logPath)
			if m := listenRE.FindSubmatch(out); m != nil {
				d.url = "http://" + string(m[1])
				continue
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	d.setup = time.Since(start)
	return d, nil
}

// healthy reports whether the daemon at url answers /healthz with status
// ok and at least wantWorkers healthy workers.
func healthy(url string, wantWorkers int) bool {
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h struct {
		Status         string `json:"status"`
		HealthyWorkers int    `json:"healthy_workers"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return false
	}
	return h.Status == "ok" && h.HealthyWorkers >= wantWorkers
}

// stop sends SIGTERM, waits for the graceful exit (killing the daemon
// after 20s), and records its peak RSS. Safe to call twice.
func (d *daemon) stop() {
	if d.cmd.ProcessState != nil {
		return
	}
	// A daemon that already exited fails the signal; Wait still reaps it.
	// Its exit status after SIGTERM says nothing the checks need.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	d.rssMB = maxRSSMB(d.cmd.ProcessState)
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// settledStats polls url's /stats until no job is in a live state, so the
// phase walls read are final, and decodes that snapshot into v. live
// reports whether a decoded snapshot still has live jobs.
func settledStats[T any](url string, live func(*T) bool) (*T, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := new(T)
		if err := getJSON(url+"/stats", v); err != nil {
			return nil, err
		}
		if !live(v) {
			return v, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s/stats: jobs still live after 30s", url)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
