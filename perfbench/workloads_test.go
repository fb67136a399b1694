package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestMain lets the test binary act as the server child: startServer
// re-executes the running binary with -serve.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		code, err := run(os.Args[1:], os.Stdout)
		if err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
		}
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// smokeOps is the tiny op count of the smoke runs.
const smokeOps = 3

// inTempWorkDir runs the test with the working directory in a temp dir,
// so spill directories and span dumps land there.
func inTempWorkDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestWorkloadSmoke runs each workload end to end at a tiny op count:
// a real server child, warm-up, timed ops with their reply checks, and
// the traced in-process replay.
func TestWorkloadSmoke(t *testing.T) {
	inTempWorkDir(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			w := sp.make()
			if err := w.prepare(7, smokeOps); err != nil {
				t.Fatal(err)
			}
			s, setup, err := setUp(w, 0)
			if err != nil {
				t.Fatal(err)
			}
			if setup <= 0 {
				t.Errorf("set-up time %v", setup)
			}
			if err := quiesce(s); err != nil {
				t.Fatal(err)
			}
			ph, err := beginPhase(s)
			if err != nil {
				t.Fatal(err)
			}
			for i := range smokeOps {
				// The last op decodes its reply twice, as
				// --client-decodes 2 makes every op do.
				if i == smokeOps-1 {
					s.c.decodes = 2
				}
				if _, err := w.op(s.c, i); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			if err := ph.end(); err != nil {
				t.Fatal(err)
			}
			if err := s.stop(); err != nil {
				t.Fatalf("stopping server: %v", err)
			}

			r := newReplayer(t.TempDir())
			defer r.close()
			if err := w.replayWarm(r); err != nil {
				t.Fatal(err)
			}
			for i := range 2 {
				r.beginOp(i)
				err := w.replay(r, i)
				r.endOp()
				if err != nil {
					t.Fatalf("replay %d: %v", i, err)
				}
			}
			names := map[string]bool{}
			for _, s := range r.tr.spans {
				names[s.Name] = true
			}
			for _, want := range []string{"op", "service.handler", "replay"} {
				if !names[want] {
					t.Errorf("no %q span; have %v", want, names)
				}
			}
			if len(r.overhead) != 2 {
				t.Errorf("%d tracing-overhead samples, want 2", len(r.overhead))
			}
			for name := range names {
				if strings.Contains(name, ".") && !slices.ContainsFunc(layerMetrics, func(m layerMetric) bool {
					return m.name == name+"_ms"
				}) {
					t.Errorf("span %q has no layer metric", name)
				}
			}
		})
	}
}

// TestChecksCatchWrongReplies feeds each workload's reply check a wrong
// answer and expects a failure.
func TestChecksCatchWrongReplies(t *testing.T) {
	inTempWorkDir(t)
	t.Run("schedule-hit", func(t *testing.T) {
		w := &scheduleHit{rt: []int64{10}}
		if w.checkHit(0, scheduleReply{Cache: "hit", RT: 10}) != nil {
			t.Fatal("correct hit rejected")
		}
		if w.checkHit(0, scheduleReply{Cache: "miss", RT: 10}) == nil {
			t.Error("a miss passed")
		}
		if w.checkHit(0, scheduleReply{Cache: "hit", RT: 11}) == nil {
			t.Error("a changed rt passed")
		}
	})
	t.Run("compare-miss", func(t *testing.T) {
		w := &compareMiss{}
		if err := w.prepare(3, 1); err != nil {
			t.Fatal(err)
		}
		s, _, err := setUp(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.stop()
		var rep service.CompareResponse
		if _, err := postChecked(s.c, "/v1/compare", w.bodies[0], &rep); err != nil {
			t.Fatal(err)
		}
		if err := w.check(&rep); err != nil {
			t.Fatalf("correct reply rejected: %v", err)
		}
		for _, mutate := range []func(*service.CompareResponse){
			func(r *service.CompareResponse) { delete(r.RT, "beam-search") },
			func(r *service.CompareResponse) { r.RT["greedy"] = r.LowerBound - 1 },
			func(r *service.CompareResponse) { r.LowerBound = 0 },
		} {
			bad := rep
			bad.RT = maps.Clone(rep.RT)
			mutate(&bad)
			if w.check(&bad) == nil {
				t.Errorf("wrong reply passed: %+v", bad)
			}
		}
	})
	t.Run("table-cold", func(t *testing.T) {
		w := &tableCold{}
		if err := w.prepare(3, 1); err != nil {
			t.Fatal(err)
		}
		in := w.in[0]
		in.want++
		s, _, err := setUp(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.stop()
		if _, err := w.send(s.c, &in); err == nil || !strings.Contains(err.Error(), "exact.OptimalRT") {
			t.Errorf("an optimal_rt differing from the reference passed: %v", err)
		}
		// The same network again is a cache hit, not a build.
		if _, err := w.send(s.c, &w.in[0]); err == nil {
			t.Error("a repeated table request passed as a build")
		}
	})
	t.Run("sweep-pipeline", func(t *testing.T) {
		w := &sweepPipeline{}
		if err := w.prepare(3, 1); err != nil {
			t.Fatal(err)
		}
		s, _, err := setUp(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.stop()
		bad := bytes.Replace(w.bodies[0], []byte(`"trials":8`), []byte(`"trials":7`), 1)
		if bytes.Equal(bad, w.bodies[0]) {
			t.Fatalf("could not alter %s", w.bodies[0])
		}
		if _, _, err := w.run(s.c, bad); err == nil {
			t.Error("a sweep with the wrong trial count passed")
		}
	})
}

// TestRunRejectsBadArguments checks the command's argument handling.
func TestRunRejectsBadArguments(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "schedule-hit", "--trace", "2"},
		{"--workload", "schedule-hit", "--seconds", "0"},
	} {
		if code, err := run(args, &out); code == 0 || err == nil {
			t.Errorf("run(%v) = %d, %v; want a failure", args, code, err)
		}
	}
	if out.Len() != 0 {
		t.Errorf("a rejected run printed %q", out.String())
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with what the command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if !slices.Equal(wl, want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", wl, want)
	}
	var e2e []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	if want := []string{"latency_p50_ms ms", "latency_p90_ms ms", "cpu_ms_per_op ms", "setup_s s"}; !slices.Equal(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, want %v", e2e, want)
	}
	var layers, have []string
	for _, m := range bj.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	for _, m := range layerMetrics {
		have = append(have, m.name+" "+m.unit)
	}
	if !slices.Equal(layers, have) {
		t.Errorf("BENCHMARK.json per_layer differs from layerMetrics:\n%v\n%v", layers, have)
	}
}
