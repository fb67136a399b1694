package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/cluster"
	"repro/internal/exact"
	"repro/internal/lower"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/trace"
)

// workload is one closed-loop traffic mix against hnowd.
type workload interface {
	// prepare generates and marshals every input from the seed: the
	// fixed warm-up set and timedOps timed inputs, disjoint from it. It
	// also computes whatever the checks compare against. No clock runs.
	prepare(seed int64, timedOps int) error
	// warm drives the warm-up through the public API of a fresh server.
	warm(c *httpClient) error
	// op sends timed input i, returning the client-observed time of the
	// exchange; the reply is checked after the clock stops.
	op(c *httpClient, i int) (time.Duration, error)
	// replayWarm and replay run the same warm-up and timed input i
	// in-process (see replay.go), recording spans around the server's
	// handler and around each layer's public functions.
	replayWarm(r *replayer) error
	replay(r *replayer, i int) error
}

// spec names a workload and sizes its run; BENCHMARK.json and README.md
// say why each workload exists.
type spec struct {
	name string
	// opsPerSecond is a nominal rate: a run of s seconds sends
	// round(s*opsPerSecond) ops, at least minOps. The count depends only
	// on the arguments, so every run of one configuration does the same
	// work however fast the host is that day.
	opsPerSecond float64
	make         func() workload
}

// minOps keeps p90 backed by at least minTail samples beyond it.
const minOps = 100

func (s spec) timedOps(seconds float64) int {
	return max(minOps, int(seconds*s.opsPerSecond+0.5))
}

var specs = []spec{
	{"schedule-hit", 2300, func() workload { return &scheduleHit{} }},
	{"compare-miss", 300, func() workload { return &compareMiss{} }},
	{"table-cold", 22, func() workload { return &tableCold{} }},
	{"sweep-pipeline", 12, func() workload { return &sweepPipeline{} }},
}

func lookupSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(names, ", "))
}

// postChecked posts a body and decodes the 2xx reply into out (see
// httpClient.decode), returning the exchange's duration.
func postChecked(c *httpClient, path string, body []byte, out any) (time.Duration, error) {
	status, data, d, err := c.do("POST", path, body)
	if err != nil {
		return d, fmt.Errorf("POST %s: %w", path, err)
	}
	if err := statusErr("POST "+path, status, data); err != nil {
		return d, err
	}
	return d, c.decode(data, out)
}

// subSeed derives an independent generator seed for item i of stream s
// from the workload seed (splitmix64 finalizer).
func subSeed(seed int64, s, i int) int64 {
	z := uint64(seed) + uint64(s)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// Input streams of subSeed, kept apart so warm-up and timed inputs never
// share a generator seed.
const (
	streamWarm = iota + 1
	streamTimed
	streamOrder
)

// warmupSeed seeds the warm-up inputs of the miss workloads. They do not
// follow --seed: set-up then does the same work on every run, so setup_s
// moves with the program and the host, not with the inputs drawn. The
// timed inputs, drawn from --seed, are checked to differ from them.
const warmupSeed = 0x5eed

// netGen draws networks whose canonical forms are all distinct, so each
// one is new to the server.
type netGen struct {
	seen map[string]bool
}

func newNetGen() *netGen { return &netGen{seen: map[string]bool{}} }

// draw returns a k-type network with n destinations from generator seed
// s, re-drawing with the next seeds until it is unseen.
func (g *netGen) draw(n, k int, s int64) (*model.MulticastSet, error) {
	for try := int64(0); try < 1000; try++ {
		set, err := cluster.Generate(cluster.GenConfig{N: n, K: k, Seed: s + try})
		if err != nil {
			return nil, err
		}
		key := service.KeyCanonical(service.Canonicalize(set), "", 0)
		if !g.seen[key] {
			g.seen[key] = true
			return set, nil
		}
	}
	return nil, fmt.Errorf("no unseen n=%d k=%d network near seed %d", n, k, s)
}

// setJSON is the compact trace-codec encoding of a set.
func setJSON(set *model.MulticastSet) ([]byte, error) {
	js, err := trace.MarshalSetJSON(set)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := json.Compact(&b, js); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// setBody wraps an encoded set as {"set": ...} plus extra fields.
func setBody(set json.RawMessage, extra string) []byte {
	return []byte(`{"set":` + string(set) + extra + `}`)
}

// ---- schedule-hit ----------------------------------------------------

const (
	hotSetSize = 1024
	hotN       = 64
)

type scheduleHit struct {
	sets, bodies [][]byte
	order        []int   // timed op i requests hot entry order[i]
	rt           []int64 // rt the server reported when the entry was warmed
	replayCache  *service.Cache
}

func (w *scheduleHit) prepare(seed int64, timedOps int) error {
	g := newNetGen()
	for i := range hotSetSize {
		set, err := g.draw(hotN, 3, subSeed(seed, streamTimed, i))
		if err != nil {
			return err
		}
		js, err := setJSON(set)
		if err != nil {
			return err
		}
		w.sets = append(w.sets, js)
		w.bodies = append(w.bodies, setBody(js, ""))
	}
	rng := rand.New(rand.NewSource(subSeed(seed, streamOrder, 0)))
	w.order = make([]int, timedOps)
	for i := range w.order {
		w.order[i] = rng.Intn(hotSetSize)
	}
	return nil
}

// scheduleReply is the part of a /v1/schedule reply the checks read.
type scheduleReply struct {
	Key   string `json:"key"`
	Cache string `json:"cache"`
	RT    int64  `json:"rt"`
}

func (w *scheduleHit) warm(c *httpClient) error {
	w.rt = make([]int64, len(w.bodies))
	for i, b := range w.bodies {
		var rep scheduleReply
		if _, err := postChecked(c, "/v1/schedule", b, &rep); err != nil {
			return err
		}
		if rep.Cache != "miss" {
			return fmt.Errorf("warm-up of hot entry %d: cache %q, want miss", i, rep.Cache)
		}
		w.rt[i] = rep.RT
	}
	return nil
}

func (w *scheduleHit) checkHit(in int, rep scheduleReply) error {
	if rep.Cache != "hit" || rep.RT != w.rt[in] {
		return fmt.Errorf("hot entry %d: cache %q rt %d, want hit with rt %d", in, rep.Cache, rep.RT, w.rt[in])
	}
	return nil
}

func (w *scheduleHit) op(c *httpClient, i int) (time.Duration, error) {
	in := w.order[i]
	var rep scheduleReply
	d, err := postChecked(c, "/v1/schedule", w.bodies[in], &rep)
	if err != nil {
		return d, err
	}
	return d, w.checkHit(in, rep)
}

// ---- compare-miss ----------------------------------------------------

const (
	compareN    = 32
	compareWarm = 192
)

type compareMiss struct {
	warmBodies, bodies, sets [][]byte
	names                    []string // every polynomial registry scheduler
	replayCache              *service.Cache
}

func (w *compareMiss) prepare(seed int64, timedOps int) error {
	scheds, err := registry.SchedulersFor(0, nil)
	if err != nil {
		return err
	}
	for _, s := range scheds {
		w.names = append(w.names, s.Name())
	}
	g := newNetGen()
	gen := func(base int64, stream, count int) ([][]byte, [][]byte, error) {
		var sets, bodies [][]byte
		for i := range count {
			set, err := g.draw(compareN, 3, subSeed(base, stream, i))
			if err != nil {
				return nil, nil, err
			}
			js, err := setJSON(set)
			if err != nil {
				return nil, nil, err
			}
			sets = append(sets, js)
			bodies = append(bodies, setBody(js, `,"optimal":false`))
		}
		return sets, bodies, nil
	}
	if _, w.warmBodies, err = gen(warmupSeed, streamWarm, compareWarm); err != nil {
		return err
	}
	w.sets, w.bodies, err = gen(seed, streamTimed, timedOps)
	return err
}

func (w *compareMiss) check(rep *service.CompareResponse) error {
	if rep.LowerBound <= 0 {
		return fmt.Errorf("lower_bound %d, want > 0", rep.LowerBound)
	}
	for _, name := range w.names {
		rt, ok := rep.RT[name]
		if !ok {
			return fmt.Errorf("scheduler %q missing from the reply", name)
		}
		if rt < rep.LowerBound {
			return fmt.Errorf("scheduler %q rt %d below lower_bound %d", name, rt, rep.LowerBound)
		}
	}
	return nil
}

func (w *compareMiss) send(c *httpClient, body []byte) (time.Duration, error) {
	var rep service.CompareResponse
	d, err := postChecked(c, "/v1/compare", body, &rep)
	if err != nil {
		return d, err
	}
	return d, w.check(&rep)
}

func (w *compareMiss) warm(c *httpClient) error {
	for _, b := range w.warmBodies {
		if _, err := w.send(c, b); err != nil {
			return err
		}
	}
	return nil
}

func (w *compareMiss) op(c *httpClient, i int) (time.Duration, error) { return w.send(c, w.bodies[i]) }

// ---- table-cold ------------------------------------------------------

const (
	tableSmallN = 40 // about 8k DP states at k=3
	tableLargeN = 60 // about 26k DP states at k=3
	tableWarm   = 18 // warm-up builds, a third of them large
)

type tableInput struct {
	set    []byte
	body   []byte
	large  bool
	want   int64 // exact.OptimalRT, computed before any clock starts
	lb     int64 // lower.Best
	parsed *model.MulticastSet
}

type tableCold struct {
	warmIn, in []tableInput
}

func (w *tableCold) prepare(seed int64, timedOps int) error {
	g := newNetGen()
	gen := func(base int64, stream int, large []bool) ([]tableInput, error) {
		out := make([]tableInput, len(large))
		for i := range out {
			n := tableSmallN
			if large[i] {
				n = tableLargeN
			}
			set, err := g.draw(n, 3, subSeed(base, stream, i))
			if err != nil {
				return nil, err
			}
			js, err := setJSON(set)
			if err != nil {
				return nil, err
			}
			out[i] = tableInput{set: js, body: setBody(js, ""), large: large[i], lb: lower.Best(set), parsed: set}
		}
		// The reference solves are the costliest part of preparation;
		// spread them over at most one goroutine per CPU.
		errs := make([]error, len(out))
		batch.ForEach(runtime.NumCPU(), len(out), func(_, i int) {
			out[i].want, errs[i] = exact.OptimalRT(out[i].parsed)
		})
		return out, errors.Join(errs...)
	}
	var err error
	if w.warmIn, err = gen(warmupSeed, streamWarm, slices.Repeat([]bool{false, false, true}, tableWarm/3)); err != nil {
		return err
	}
	// Exactly one input in three is from the large class, in an order
	// drawn from the seed, so every run has the same class mix.
	large := make([]bool, timedOps)
	for i := range large {
		large[i] = i%3 == 2
	}
	rng := rand.New(rand.NewSource(subSeed(seed, streamOrder, 0)))
	rng.Shuffle(len(large), func(a, b int) { large[a], large[b] = large[b], large[a] })
	w.in, err = gen(seed, streamTimed, large)
	return err
}

func checkTable(in *tableInput, rep *service.TableResponse) error {
	if rep.Cache != service.TableCacheMiss {
		return fmt.Errorf("table cache %q, want a build (miss)", rep.Cache)
	}
	if rep.OptimalRT != in.want {
		return fmt.Errorf("optimal_rt %d, want exact.OptimalRT %d", rep.OptimalRT, in.want)
	}
	if rep.OptimalRT < in.lb {
		return fmt.Errorf("optimal_rt %d below lower.Best %d", rep.OptimalRT, in.lb)
	}
	return nil
}

func (w *tableCold) send(c *httpClient, in *tableInput) (time.Duration, error) {
	var rep service.TableResponse
	d, err := postChecked(c, "/v1/table", in.body, &rep)
	if err != nil {
		return d, err
	}
	return d, checkTable(in, &rep)
}

func (w *tableCold) warm(c *httpClient) error {
	for i := range w.warmIn {
		if _, err := w.send(c, &w.warmIn[i]); err != nil {
			return err
		}
	}
	return nil
}

func (w *tableCold) op(c *httpClient, i int) (time.Duration, error) { return w.send(c, &w.in[i]) }

// ---- sweep-pipeline --------------------------------------------------

const (
	sweepTrials   = 8
	sweepN        = 32
	sweepSegments = 8
	sweepWarm     = 16
	// pollEvery is the status-poll interval. A coarse poll quantizes the
	// measured job time to its period, so it is kept at 1 ms.
	pollEvery = time.Millisecond
)

type sweepPipeline struct {
	warmBodies, bodies [][]byte
	seeds              []int64 // timed sweep seeds, for the replay
	polls              int     // status polls sent in timed ops
}

func (w *sweepPipeline) prepare(seed int64, timedOps int) error {
	gen := func(base int64, stream, count int) ([][]byte, []int64, error) {
		var bodies [][]byte
		var seeds []int64
		for i := range count {
			// Each sweep draws trials seed..seed+7; stepping by a large
			// stride keeps every sweep's instances unseen.
			s := subSeed(base, stream, i) &^ 0xffff
			b, err := json.Marshal(service.SweepRequest{Trials: sweepTrials, N: sweepN, Seed: s,
				Model: "pipeline", Segments: sweepSegments})
			if err != nil {
				return nil, nil, err
			}
			bodies = append(bodies, b)
			seeds = append(seeds, s)
		}
		return bodies, seeds, nil
	}
	var err error
	if w.warmBodies, _, err = gen(warmupSeed, streamWarm, sweepWarm); err != nil {
		return err
	}
	w.bodies, w.seeds, err = gen(seed, streamTimed, timedOps)
	return err
}

func checkSweep(job *service.Job) error {
	if job.Status != service.JobDone {
		return fmt.Errorf("sweep %s: status %q (%s), want done", job.ID, job.Status, job.Error)
	}
	if job.Result == nil || job.Result.Trials != sweepTrials || job.Result.Errors != 0 {
		return fmt.Errorf("sweep %s: result %+v, want %d trials and no errors", job.ID, job.Result, sweepTrials)
	}
	return nil
}

// run starts a sweep and polls it every pollEvery until it leaves
// "running"; the duration covers the start request through the poll
// that saw it finish.
func (w *sweepPipeline) run(c *httpClient, body []byte) (time.Duration, int, error) {
	start := time.Now()
	var job service.Job
	if _, err := postChecked(c, "/v1/sweeps", body, &job); err != nil {
		return time.Since(start), 0, err
	}
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	polls := 0
	for job.Status == service.JobRunning {
		<-tick.C
		status, data, _, err := c.do("GET", "/v1/sweeps/"+job.ID, nil)
		polls++
		if err == nil {
			err = statusErr("GET sweep "+job.ID, status, data)
		}
		if err == nil {
			err = c.decode(data, &job)
		}
		if err != nil {
			return time.Since(start), polls, err
		}
	}
	d := time.Since(start)
	return d, polls, checkSweep(&job)
}

func (w *sweepPipeline) warm(c *httpClient) error {
	for _, b := range w.warmBodies {
		if _, _, err := w.run(c, b); err != nil {
			return err
		}
	}
	return nil
}

func (w *sweepPipeline) op(c *httpClient, i int) (time.Duration, error) {
	d, polls, err := w.run(c, w.bodies[i])
	w.polls += polls
	return d, err
}

// schedulerMetric turns a registry name into a metric-name fragment.
func schedulerMetric(name string) string { return strings.ReplaceAll(name, "+", "-") }
