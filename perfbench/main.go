// Command perfbench is the hnowd benchmark. It drives a real hnowd
// server, run as a child process, over loopback HTTP with one
// closed-loop client, checks every reply, and prints each metric by name
// with its unit. See README.md for the workloads and metrics.
//
//	perfbench --workload schedule-hit --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it instead reports per-layer metrics from a traced
// in-process replay of the same inputs. The last line of standard output
// is always one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets up (server start plus warm-up);
// setup_s is their median, and the last one serves the timed phase.
const setupReps = 7

// workDir holds spill directories and span dumps, inside the checkout.
const workDir = ".bench_build"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "nominal timed-phase length; sets the fixed op count")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced replay instead of end-to-end ones")
	decodes := fs.Int("client-decodes", 1, "times the client decodes each reply (raise to check that cpu_ms_per_op excludes the client)")
	serve := fs.Bool("serve", false, "internal: run as the hnowd child process")
	spill := fs.String("spill", "", "internal: the child's table spill directory")
	spread := fs.Bool("spread", false, "read result lines from the files named as arguments and print each metric's median and quartile spread")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	switch {
	case *serve:
		return 0, serveMain(*spill)
	case *spread:
		return 0, printSpread(stdout, fs.Args())
	case *traced != 0 && *traced != 1:
		return 2, fmt.Errorf("--trace must be 0 or 1")
	case *decodes < 1:
		return 2, fmt.Errorf("--client-decodes must be at least 1")
	case *seconds <= 0:
		return 2, fmt.Errorf("--seconds must be positive")
	}
	var todo []spec
	if *name == "all" {
		todo = specs
	} else {
		sp, err := lookupSpec(*name)
		if err != nil {
			return 2, err
		}
		todo = []spec{sp}
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, sp := range todo {
		var res result
		var err error
		if *traced == 1 {
			res, err = runTraced(stdout, sp, *seed, *seconds, *decodes)
		} else {
			res, err = runE2E(stdout, sp, *seed, *seconds, *decodes)
		}
		if err != nil {
			return 1, fmt.Errorf("%s: %w", sp.name, err)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(todo) > 1 {
				k = sp.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1, fmt.Errorf("correctness check failed")
	}
	return 0, nil
}

// freshDir makes an empty directory under workDir for one server.
func freshDir(parts ...string) (string, error) {
	dir := filepath.Join(append([]string{workDir, fmt.Sprintf("run-%d", os.Getpid())}, parts...)...)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func cleanRunDir() { os.RemoveAll(filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))) }

// liveServer is a started, warmed server with its client.
type liveServer struct {
	proc *serverProc
	c    *httpClient
}

func (s *liveServer) stop() error {
	s.c.close()
	return s.proc.stop()
}

// setUp starts a server in a fresh spill directory and warms it.
func setUp(w workload, rep int) (*liveServer, time.Duration, error) {
	dir, err := freshDir(fmt.Sprintf("server-%d", rep))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	proc, err := startServer(dir)
	if err != nil {
		return nil, 0, err
	}
	s := &liveServer{proc: proc, c: newHTTPClient(proc.addr)}
	if err := w.warm(s.c); err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return s, time.Since(start), nil
}

// setUpRepeated sets up setupReps times, keeping the last server, and
// returns it with each set-up's time in seconds. Each repetition starts a
// new server, so warm-up inputs are new to each one.
func setUpRepeated(w workload) (*liveServer, []float64, error) {
	var times []float64
	var s *liveServer
	for rep := range setupReps {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, nil, err
			}
		}
		var d time.Duration
		var err error
		if s, d, err = setUp(w, rep); err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
	}
	return s, times, nil
}

// quiesce collects garbage in both processes, outside every timed window.
func quiesce(s *liveServer) error {
	runtime.GC()
	return s.proc.gc()
}

// phase is a timed phase's accounting of server CPU and host steal. The
// load generator's own CPU time is kept too, as a diagnostic.
type phase struct {
	start                    time.Time
	cpu0, clientCPU0, steal0 int64
	elapsed                  time.Duration
	cpuTicks, clientCPUTicks int64
	stealTicks               int64
	serverPID                int
}

func beginPhase(s *liveServer) (*phase, error) {
	p := &phase{serverPID: s.proc.pid()}
	var err error
	if p.steal0, err = stealTicks(); err != nil {
		return nil, err
	}
	if p.cpu0, err = s.proc.cpuTicks(); err != nil {
		return nil, err
	}
	if p.clientCPU0, err = procCPUTicks(os.Getpid()); err != nil {
		return nil, err
	}
	p.start = time.Now()
	return p, nil
}

func (p *phase) end() error {
	p.elapsed = time.Since(p.start)
	cpu1, err := procCPUTicks(p.serverPID)
	if err != nil {
		return err
	}
	client1, err := procCPUTicks(os.Getpid())
	if err != nil {
		return err
	}
	steal1, err := stealTicks()
	if err != nil {
		return err
	}
	p.cpuTicks, p.clientCPUTicks, p.stealTicks = cpu1-p.cpu0, client1-p.clientCPU0, steal1-p.steal0
	return nil
}

func (p *phase) hostSteal(h *hostInfo) {
	h.StealTicks = p.stealTicks
	h.StealShare = float64(p.stealTicks) / (p.elapsed.Seconds() * float64(h.NProc) * clockTicks)
}

// runE2E is the untraced run: set-up, then the fixed sequence of timed
// ops, reporting the end-to-end metrics.
func runE2E(stdout io.Writer, sp spec, seed int64, seconds float64, decodes int) (result, error) {
	defer cleanRunDir()
	w := sp.make()
	n := sp.timedOps(seconds)
	if err := w.prepare(seed, n); err != nil {
		return result{}, fmt.Errorf("preparing inputs: %w", err)
	}
	host := newHostInfo(sp.name, seed)
	// Collect preparation's garbage now, so the load generator's GC does
	// not compete with the server during set-up.
	runtime.GC()
	s, setups, err := setUpRepeated(w)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "set-up times (s): %.4f\n", setups)
	defer s.stop()
	s.c.decodes = decodes
	if err := quiesce(s); err != nil {
		return result{}, err
	}
	ph, err := beginPhase(s)
	if err != nil {
		return result{}, err
	}
	var tally opTally
	for i := range n {
		d, err := w.op(s.c, i)
		tally.add(ms(d), err)
	}
	if err := ph.end(); err != nil {
		return result{}, err
	}
	if err := s.stop(); err != nil {
		return result{}, fmt.Errorf("stopping server: %w", err)
	}
	ph.hostSteal(&host)
	p50 := median(tally.latMs)
	p90, err := percentile(tally.latMs, 0.9)
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   tally.failed == 0,
		Attempted: tally.attempted,
		Failed:    tally.failed,
		Metrics: map[string]metric{
			"latency_p50_ms": {p50, "ms"},
			"latency_p90_ms": {p90, "ms"},
			"cpu_ms_per_op":  {float64(ph.cpuTicks) * 1000 / clockTicks / float64(max(tally.succeeded(), 1)), "ms"},
			"setup_s":        {median(setups), "s"},
		},
	}
	report(stdout, sp, host, &tally, ph, res.Metrics)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func report(stdout io.Writer, sp spec, host hostInfo, t *opTally, ph *phase, m map[string]metric) {
	hj, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "workload %s: %d attempted, %d succeeded, %d failed (failure share %.4f) in %.2fs; load generator CPU %.4g ms/op\n",
		sp.name, t.attempted, t.succeeded(), t.failed, t.failureShare(), ph.elapsed.Seconds(),
		float64(ph.clientCPUTicks)*1000/clockTicks/float64(max(t.attempted, 1)))
	if t.firstErr != nil {
		fmt.Fprintf(stdout, "first failure: %v\n", t.firstErr)
	}
	fmt.Fprintf(stdout, "host %s\n", hj)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", sp.name+"/"+k, m[k].Value, m[k].Unit)
	}
}

// printSpread reads result lines (the last JSON line of each run) from
// files and prints, per metric, the sample count, median, quartiles and
// the quartile distance as a share of the median.
func printSpread(stdout io.Writer, files []string) error {
	vals := map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			var r result
			if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &r) != nil || r.Metrics == nil {
				continue
			}
			for k, m := range r.Metrics {
				vals[k] = append(vals[k], m.Value)
			}
		}
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-40s %4s %12s %12s %12s %8s\n", "metric", "n", "q1", "median", "q3", "spread")
	for _, k := range names {
		q1, q2, q3, err := quartiles(vals[k])
		if err != nil {
			fmt.Fprintf(stdout, "%-40s %4d %s\n", k, len(vals[k]), err)
			continue
		}
		fmt.Fprintf(stdout, "%-40s %4d %12.6g %12.6g %12.6g %8.4f\n", k, len(vals[k]), q1, q2, q3, math.Abs(q3-q1)/q2)
	}
	return nil
}
