package main

import (
	"fmt"
	"io"
	"path/filepath"
)

// layerMetric is one per-layer metric of the traced run. Every traced
// run reports every one; a layer the workload never reaches reads 0.
type layerMetric struct{ name, unit string }

// schedulerNames are the polynomial registry schedulers, whose solves
// the compare and sweep replays time one by one. They are listed here,
// not read from the registry, because they are part of the benchmark's
// output (BENCHMARK.json): a scheduler added later is still timed inside
// the replay, and reported by name once the benchmark lists it.
var schedulerNames = []string{
	"greedy", "greedy+leafrev", "star", "chain", "binomial", "fnf-nodemodel",
	"random", "postal", "slowest-first", "local-search", "annealing", "beam-search",
}

// layerMetrics lists the traced run's metrics in report order. Names
// ending in _ms are the median over replayed ops of that layer's self
// time per op.
var layerMetrics = func() []layerMetric {
	ms := func(names ...string) []layerMetric {
		out := make([]layerMetric, len(names))
		for i, n := range names {
			out[i] = layerMetric{n + "_ms", "ms"}
		}
		return out
	}
	m := ms("service.handler", "net.overhead", "trace.uncovered", "trace.overhead",
		"trace.decode_set", "service.canonicalize", "service.key", "service.cache_get", "registry.lookup")
	for _, s := range schedulerNames {
		m = append(m, ms("solve."+schedulerMetric(s))...)
	}
	m = append(m, ms("trace.marshal_schedule", "model.engine_score", "lower.best", "bounds.params",
		"service.cache_put",
		"exact.analyze", "exact.fill_small", "exact.fill_large", "exact.fill_w1_small", "exact.fill_w1_large",
		"exact.spill_write", "exact.lookup",
		"batch.sweep_run", "cluster.generate", "model.pipeline_eval")...)
	for _, s := range schedulerNames {
		m = append(m, ms("solve."+schedulerMetric(s)+"_pipeline")...)
	}
	return append(m,
		layerMetric{"exact.parallel_speedup_small", "ratio"},
		layerMetric{"exact.parallel_speedup_large", "ratio"},
		layerMetric{"exact.states_per_op", "count"},
		layerMetric{"exact.eval_columns_per_op", "count"},
		layerMetric{"service.response_bytes", "bytes"},
		layerMetric{"service.cache_hit_ratio", "ratio"},
		layerMetric{"service.cache_evictions_per_op", "count"},
		layerMetric{"service.table_builds_per_op", "count"},
		layerMetric{"service.sweep_polls_per_op", "count"},
		layerMetric{"runtime.alloc_bytes_per_op", "bytes"},
		layerMetric{"runtime.gc_cycles_per_kop", "count"},
		layerMetric{"runtime.heap_inuse_mb", "MB"},
	)
}()

// replayOps sizes the in-process replay: a replayed op costs the
// handler plus every layer call again, so it replays a quarter of the
// timed inputs.
func replayOps(timed int) int { return min(timed, max(20, timed/4)) }

// runTraced is the traced run. It sets up as the untraced run does, then
//  1. drives the timed inputs over the socket, reading the server's
//     counters around the phase;
//  2. replays the first inputs in-process with a span around the
//     handler and around every layer call (see replayer).
func runTraced(stdout io.Writer, sp spec, seed int64, seconds float64, decodes int) (result, error) {
	defer cleanRunDir()
	w := sp.make()
	n := sp.timedOps(seconds)
	if err := w.prepare(seed, n); err != nil {
		return result{}, fmt.Errorf("preparing inputs: %w", err)
	}
	host := newHostInfo(sp.name, seed)
	s, _, err := setUp(w, 0)
	if err != nil {
		return result{}, err
	}
	defer s.stop()
	s.c.decodes = decodes
	if err := quiesce(s); err != nil {
		return result{}, err
	}
	v0, err := s.c.vars()
	if err != nil {
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
	v1, err := s.c.vars()
	if err != nil {
		return result{}, err
	}
	if err := s.stop(); err != nil {
		return result{}, fmt.Errorf("stopping server: %w", err)
	}
	ph.hostSteal(&host)

	dir, err := freshDir("replay")
	if err != nil {
		return result{}, err
	}
	r := newReplayer(dir)
	defer r.close()
	if err := w.replayWarm(r); err != nil {
		return result{}, fmt.Errorf("replay warm-up: %w", err)
	}
	m := replayOps(n)
	for i := range m {
		r.beginOp(n + i) // op IDs continue after the socket ops
		err := w.replay(r, i)
		r.endOp()
		tally.add(0, err)
	}
	if err := r.tr.write(filepath.Join(workDir, "spans-"+sp.name+".jsonl")); err != nil {
		return result{}, err
	}

	vals := layerValues(r.tr.spans, r.counts)
	ops := float64(n)
	vals["net.overhead_ms"] = median(pairedDiff(tally.latMs, perOpSelf(r.tr.spans)["service.handler"]))
	vals["trace.overhead_ms"] = median(r.overhead)
	if lookups := float64((v1.CacheHits + v1.CacheMisses) - (v0.CacheHits + v0.CacheMisses)); lookups > 0 {
		vals["service.cache_hit_ratio"] = float64(v1.CacheHits-v0.CacheHits) / lookups
	}
	vals["service.cache_evictions_per_op"] = float64(v1.CacheEvicts-v0.CacheEvicts) / ops
	vals["service.table_builds_per_op"] = float64(v1.TableBuilds-v0.TableBuilds) / ops
	vals["runtime.alloc_bytes_per_op"] = float64(v1.MemStats.TotalAlloc-v0.MemStats.TotalAlloc) / ops
	vals["runtime.gc_cycles_per_kop"] = float64(v1.MemStats.NumGC-v0.MemStats.NumGC) * 1000 / ops
	vals["runtime.heap_inuse_mb"] = float64(v0.MemStats.HeapInuse) / (1 << 20)
	if sw, ok := w.(*sweepPipeline); ok {
		vals["service.sweep_polls_per_op"] = float64(sw.polls) / ops
	}

	res := result{Correct: tally.failed == 0, Attempted: tally.attempted, Failed: tally.failed,
		Metrics: map[string]metric{}}
	if err := invariantsHold(sp.name, vals); err != nil {
		res.Correct = false
		fmt.Fprintf(stdout, "invariant failed: %v\n", err)
	}
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{vals[lm.name], lm.unit}
	}
	report(stdout, sp, host, &tally, ph, res.Metrics)
	return res, nil
}

// invariantsHold checks the counts a workload is defined by: every
// schedule-hit lookup hits, and every table-cold request builds exactly
// one table.
func invariantsHold(workload string, vals map[string]float64) error {
	switch workload {
	case "schedule-hit":
		if v := vals["service.cache_hit_ratio"]; v != 1 {
			return fmt.Errorf("schedule-hit cache hit ratio %v, want 1", v)
		}
	case "table-cold":
		if v := vals["service.table_builds_per_op"]; v != 1 {
			return fmt.Errorf("table-cold table builds per op %v, want 1", v)
		}
	}
	return nil
}

// layerValues turns the replay's spans and counts into layer metrics:
// each span name's median self time per op, the handler time the replay
// spans leave unexplained, the parallel-fill speedups and count medians.
func layerValues(spans []span, counts map[string][]float64) map[string]float64 {
	vals := map[string]float64{}
	for name, per := range perOpSelf(spans) {
		vals[name+"_ms"] = median(per)
	}
	vals["trace.uncovered_ms"] = median(uncoveredPerOp(spans))
	for _, class := range []string{"small", "large"} {
		if par, seq := vals["exact.fill_"+class+"_ms"], vals["exact.fill_w1_"+class+"_ms"]; par > 0 {
			vals["exact.parallel_speedup_"+class] = seq / par
		}
	}
	for name, v := range counts {
		vals[name] = median(v)
	}
	return vals
}

// uncoveredPerOp returns, for every op with a handler and a replay span,
// the handler's duration minus the part of the replay span its layer
// children cover, in milliseconds.
func uncoveredPerOp(spans []span) []float64 {
	self := selfTimes(spans)
	type opSpans struct{ handler, replayCovered int64 }
	per := map[int]*opSpans{}
	var order []int
	get := func(op int) *opSpans {
		if per[op] == nil {
			per[op] = &opSpans{handler: -1, replayCovered: -1}
			order = append(order, op)
		}
		return per[op]
	}
	for i, s := range spans {
		switch s.Name {
		case "service.handler":
			get(s.Op).handler = int64(s.dur())
		case "replay":
			get(s.Op).replayCovered = int64(s.dur()) - self[i]
		}
	}
	var out []float64
	for _, op := range order {
		if o := per[op]; o.handler >= 0 && o.replayCovered >= 0 {
			out = append(out, float64(o.handler-o.replayCovered)/1e6)
		}
	}
	return out
}

// pairedDiff returns socket[i]-handler[i] for every replayed input i:
// the replay runs the first inputs of the socket phase in order, so each
// difference compares one input with itself.
func pairedDiff(socket, handler []float64) []float64 {
	out := make([]float64, 0, len(handler))
	for i, h := range handler {
		out = append(out, socket[i]-h)
	}
	return out
}
