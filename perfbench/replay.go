package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/batch"
	"repro/internal/bounds"
	"repro/internal/cluster"
	"repro/internal/exact"
	"repro/internal/lower"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/trace"
)

// replayer runs a workload's inputs in-process. Each op gets a root span
// "op" with three kinds of children:
//
//   - "service.handler": the server's whole handling of the request,
//     Server.Handler().ServeHTTP with no socket and nothing else around
//     it (a sweep's span also covers its status polls, see replay);
//   - "replay": the same request re-run through each layer's public
//     functions in the order the handler calls them, one child span per
//     call, so the handler time these spans do not explain is the
//     op's uncovered remainder;
//   - "detail": extra layer calls the handler does not make (a
//     one-worker fill to compare against the parallel one, per-scheduler
//     solves behind a sweep), kept out of the remainder.
//
// The spans are measured from outside the program: they wrap public
// calls, none sits inside a layer.
type replayer struct {
	srv      *service.Server
	h        http.Handler
	tr       *tracer
	spillDir string // where replayed spill writes go

	op, root, cur int
	off           bool // tracing paused for an untraced re-run
	// counts holds per-op counts (bytes, states) by metric name.
	counts map[string][]float64
	// overhead holds per-op traced-minus-untraced replay times (ms).
	overhead []float64
}

// newReplayer builds an in-process server with the benchmark's config
// (its spill in dir/server) and a tracer.
func newReplayer(dir string) *replayer {
	srv := service.New(serverConfig(filepath.Join(dir, "server")))
	return &replayer{srv: srv, h: srv.Handler(), tr: newTracer(),
		spillDir: filepath.Join(dir, "replay"), counts: map[string][]float64{}}
}

func (r *replayer) close() { r.srv.Close() }

// serve runs one request through the server's handler with no socket.
// When timed, the op's "service.handler" span covers ServeHTTP alone:
// building the request and recorder, the status check and decoding the
// reply all stay outside it.
func (r *replayer) serve(method, path string, body []byte, timed bool) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	if timed {
		r.tr.do(r.op, r.root, "service.handler", func() { r.h.ServeHTTP(rec, req) })
	} else {
		r.h.ServeHTTP(rec, req)
	}
	return rec.Code, rec.Body.Bytes()
}

// serveJSON is serve plus a check for a 2xx reply and its decoding.
func (r *replayer) serveJSON(method, path string, body []byte, out any, timed bool) ([]byte, error) {
	code, data := r.serve(method, path, body, timed)
	if err := statusErr(method+" "+path, code, data); err != nil {
		return data, err
	}
	return data, json.Unmarshal(data, out)
}

func (r *replayer) beginOp(i int) { r.op, r.root = i, r.tr.begin(i, 0, "op") }
func (r *replayer) endOp()        { r.tr.end(r.root) }

// section opens a "replay" or "detail" span under the op's root; layer
// spans opened inside fn become its children. A "replay" section is run
// a second time with tracing off, alternating which run goes first, and
// the difference of the two is one sample of the tracing overhead; fn
// must therefore give the same results when repeated.
func (r *replayer) section(name string, fn func()) {
	traced := func() time.Duration {
		id := r.tr.begin(r.op, r.root, name)
		r.cur = id
		fn()
		r.tr.end(id)
		r.cur = 0
		return r.tr.spans[id-1].dur()
	}
	if name != "replay" {
		traced()
		return
	}
	untraced := func() time.Duration {
		r.off = true
		start := time.Now()
		fn()
		d := time.Since(start)
		r.off = false
		return d
	}
	var on, off time.Duration
	if r.op%2 == 0 {
		on, off = traced(), untraced()
	} else {
		off, on = untraced(), traced()
	}
	r.overhead = append(r.overhead, ms(on-off))
}

// layer times one public call of a layer inside the current section.
func (r *replayer) layer(name string, fn func()) {
	if r.off {
		fn()
		return
	}
	r.tr.do(r.op, r.cur, name, fn)
}

func (r *replayer) count(name string, v float64) { r.counts[name] = append(r.counts[name], v) }

// decodeCanon replays the set decode and canonicalization every handler
// starts with. The handler's own request decoding and reply encoding are
// unexported, so the replay does not copy them: their time stays in the
// op's uncovered remainder, where a change to either shows.
func (r *replayer) decodeCanon(setJS []byte) (*model.MulticastSet, error) {
	var err error
	var set *model.MulticastSet
	r.layer("trace.decode_set", func() { set, err = trace.UnmarshalSetJSON(setJS) })
	if err != nil {
		return nil, err
	}
	var canon *model.MulticastSet
	r.layer("service.canonicalize", func() { canon = service.Canonicalize(set) })
	return canon, nil
}

// ---- schedule-hit ----------------------------------------------------

const defaultAlgo = "greedy+leafrev"

func (w *scheduleHit) replayWarm(r *replayer) error {
	w.replayCache = newPlanCache()
	for i, b := range w.bodies {
		var rep service.ScheduleResponse
		if _, err := r.serveJSON("POST", "/v1/schedule", b, &rep, false); err != nil {
			return err
		}
		if rep.Cache != "miss" || (w.rt != nil && rep.RT != w.rt[i]) {
			return fmt.Errorf("replay warm-up of hot entry %d: cache %q rt %d", i, rep.Cache, rep.RT)
		}
		w.replayCache.Put(rep.Key, &service.Plan{Algo: rep.Algo, ScheduleJSON: rep.Schedule,
			RT: rep.RT, DT: rep.DT, LowerBound: rep.LowerBound,
			Bound: bounds.Params{AlphaMin: rep.Theorem1.AlphaMin, AlphaMax: rep.Theorem1.AlphaMax,
				Beta: rep.Theorem1.Beta, C: rep.Theorem1.C}})
	}
	return nil
}

func (w *scheduleHit) replay(r *replayer, i int) error {
	in := w.order[i]
	var rep scheduleReply
	data, err := r.serveJSON("POST", "/v1/schedule", w.bodies[in], &rep, true)
	if err != nil {
		return err
	}
	if err := w.checkHit(in, rep); err != nil {
		return err
	}
	r.count("service.response_bytes", float64(len(data)))
	r.section("replay", func() {
		var canon *model.MulticastSet
		if canon, err = r.decodeCanon(w.sets[in]); err != nil {
			return
		}
		var key string
		r.layer("service.key", func() { key = service.KeyCanonical(canon, defaultAlgo, 0) })
		var ok bool
		r.layer("service.cache_get", func() { _, ok = w.replayCache.Get(key) })
		if !ok || key != rep.Key {
			err = fmt.Errorf("replayed key %q missed the warmed plans (server key %q)", key, rep.Key)
		}
	})
	return err
}

// ---- compare-miss ----------------------------------------------------

func (w *compareMiss) replayWarm(r *replayer) error {
	w.replayCache = newPlanCache()
	for _, b := range w.warmBodies {
		var rep service.CompareResponse
		if _, err := r.serveJSON("POST", "/v1/compare", b, &rep, false); err != nil {
			return err
		}
		if err := w.check(&rep); err != nil {
			return err
		}
	}
	return nil
}

func (w *compareMiss) replay(r *replayer, i int) error {
	var rep service.CompareResponse
	data, err := r.serveJSON("POST", "/v1/compare", w.bodies[i], &rep, true)
	if err != nil {
		return err
	}
	if err := w.check(&rep); err != nil {
		return err
	}
	r.count("service.response_bytes", float64(len(data)))
	r.section("replay", func() {
		var canon *model.MulticastSet
		if canon, err = r.decodeCanon(w.sets[i]); err != nil {
			return
		}
		for _, name := range w.names {
			// One plan per scheduler, as the handler's planModel makes it.
			var key string
			r.layer("service.key", func() { key = service.KeyCanonical(canon, name, 0) })
			r.layer("service.cache_get", func() { w.replayCache.Get(key) })
			var s model.Scheduler
			r.layer("registry.lookup", func() { s, err = registry.LookupFor(name, 0, nil) })
			if err != nil {
				return
			}
			var sch *model.Schedule
			r.layer("solve."+schedulerMetric(name), func() { sch, err = s.Schedule(canon) })
			if err != nil {
				return
			}
			var js []byte
			r.layer("trace.marshal_schedule", func() { js, err = trace.MarshalJSON(sch) })
			if err != nil {
				return
			}
			var rt, dt int64
			r.layer("model.engine_score", func() {
				var eng model.Engine
				eng.Attach(sch)
				rt, dt = eng.RT(), eng.DT()
			})
			p := &service.Plan{Algo: name, ScheduleJSON: js, RT: rt, DT: dt}
			r.layer("lower.best", func() { p.LowerBound = lower.Best(canon) })
			r.layer("bounds.params", func() { p.Bound = bounds.ParamsOf(canon) })
			r.layer("service.cache_put", func() { w.replayCache.Put(key, p) })
			if rt != rep.RT[name] {
				err = fmt.Errorf("replayed %s rt %d, server said %d", name, rt, rep.RT[name])
				return
			}
		}
		// The reply's own lower bound and Theorem 1 parameters.
		r.layer("lower.best", func() { lower.Best(canon) })
		r.layer("bounds.params", func() { bounds.ParamsOf(canon) })
	})
	return err
}

// ---- table-cold ------------------------------------------------------

func (w *tableCold) replayWarm(r *replayer) error {
	for i := range w.warmIn {
		var rep service.TableResponse
		if _, err := r.serveJSON("POST", "/v1/table", w.warmIn[i].body, &rep, false); err != nil {
			return err
		}
		if err := checkTable(&w.warmIn[i], &rep); err != nil {
			return err
		}
	}
	return nil
}

func (w *tableCold) replay(r *replayer, i int) error {
	in := &w.in[i]
	var rep service.TableResponse
	data, err := r.serveJSON("POST", "/v1/table", in.body, &rep, true)
	if err != nil {
		return err
	}
	if err := checkTable(in, &rep); err != nil {
		return err
	}
	r.count("service.response_bytes", float64(len(data)))
	class := "small"
	if in.large {
		class = "large"
	}
	var inst *exact.Instance
	r.section("replay", func() {
		var canon *model.MulticastSet
		if canon, err = r.decodeCanon(in.set); err != nil {
			return
		}
		r.layer("exact.analyze", func() { inst, err = exact.Analyze(canon) })
		if err != nil {
			return
		}
		var dp *exact.DP
		// Workers 0 is the server default: GOMAXPROCS.
		r.layer("exact.fill_"+class, func() {
			if dp, err = inst.NewDP(); err == nil {
				dp.FillAllParallel(0)
			}
		})
		if err != nil {
			return
		}
		r.count("exact.states_per_op", float64(dp.States()))
		r.count("exact.eval_columns_per_op", float64(dp.EvalColumns()))
		var t *exact.Table
		r.layer("exact.spill_write", func() {
			var path string
			if t, err = dp.FinishTable(); err != nil {
				return
			}
			if path, err = service.SpillPath(r.spillDir, t); err == nil {
				err = exact.WriteTableFile(path, t)
			}
		})
		if err != nil {
			return
		}
		var opt int64
		r.layer("exact.lookup", func() { opt, err = t.Lookup(inst.SourceType, inst.Counts) })
		if err == nil && opt != in.want {
			err = fmt.Errorf("replayed table optimum %d, want %d", opt, in.want)
		}
	})
	if err != nil {
		return err
	}
	r.section("detail", func() {
		r.layer("exact.fill_w1_"+class, func() {
			var dp *exact.DP
			if dp, err = inst.NewDP(); err == nil {
				dp.FillAll()
			}
		})
	})
	return err
}

// ---- sweep-pipeline --------------------------------------------------

func (w *sweepPipeline) replayWarm(r *replayer) error {
	for _, b := range w.warmBodies {
		if _, err := w.replayRun(r, b); err != nil {
			return err
		}
	}
	return nil
}

// replayRun starts a sweep through the handler and polls it every
// pollEvery until it finishes, as the socket client does.
func (w *sweepPipeline) replayRun(r *replayer, body []byte) (int, error) {
	var job service.Job
	if _, err := r.serveJSON("POST", "/v1/sweeps", body, &job, false); err != nil {
		return 0, err
	}
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	polls := 0
	for job.Status == service.JobRunning {
		<-tick.C
		polls++
		if _, err := r.serveJSON("GET", "/v1/sweeps/"+job.ID, nil, &job, false); err != nil {
			return polls, err
		}
	}
	return polls, checkSweep(&job)
}

func (w *sweepPipeline) replay(r *replayer, i int) error {
	// A sweep runs in the background after its start request returns, so
	// its handler span runs from the start request to the poll that sees
	// the job finish; decoding those small status replies falls inside.
	var herr error
	r.tr.do(r.op, r.root, "service.handler", func() { _, herr = w.replayRun(r, w.bodies[i]) })
	if herr != nil {
		return herr
	}
	seed := w.seeds[i]
	gen := func(t int) (*model.MulticastSet, error) {
		return cluster.Generate(cluster.GenConfig{N: sweepN, K: 3, Seed: seed + int64(t)})
	}
	var cm model.CostModel = &model.PipelineModel{Segments: sweepSegments}
	scheds, err := registry.SchedulersFor(seed, cm)
	if err != nil {
		return err
	}
	r.section("replay", func() {
		r.layer("batch.sweep_run", func() {
			var res []batch.Result
			sw := batch.Sweep{Gen: gen, Schedulers: scheds, Model: cm, Trials: sweepTrials}
			if res, err = sw.Run(); err == nil {
				err = batch.FirstError(res)
			}
		})
	})
	if err != nil {
		return err
	}
	r.section("detail", func() {
		var tm model.Times
		for t := range sweepTrials {
			var set *model.MulticastSet
			r.layer("cluster.generate", func() { set, err = gen(t) })
			if err != nil {
				return
			}
			for _, s := range scheds {
				var sch *model.Schedule
				r.layer("solve."+schedulerMetric(s.Name())+"_pipeline", func() { sch, err = s.Schedule(set) })
				if err != nil {
					return
				}
				sch.BindModel(cm)
				r.layer("model.pipeline_eval", func() { err = cm.EvalInto(sch, &tm) })
				if err != nil {
					return
				}
			}
		}
	})
	return err
}
