package model

import (
	"math/rand"
	"testing"
)

// allMoves is neighborhood plus the relocations the heuristics skip but
// the engine supports: a leaf re-appended under its own parent.
func allMoves(sch *Schedule) []Move {
	moves := neighborhood(sch)
	for v := 1; v < len(sch.Set.Nodes); v++ {
		if sch.IsLeaf(v) {
			moves = append(moves, RelocateMove(v, sch.Parent(v)))
		}
	}
	return moves
}

// requireModelTimes pins every engine observable to cm.EvalInto.
func requireModelTimes(t *testing.T, eng *Engine, sch *Schedule, cm CostModel, label string) {
	t.Helper()
	var want, got Times
	if err := cm.EvalInto(sch, &want); err != nil {
		t.Fatal(err)
	}
	if eng.DT() != want.DT || eng.RT() != want.RT {
		t.Fatalf("%s: engine DT/RT = %d/%d, EvalInto %d/%d\ntree %s", label, eng.DT(), eng.RT(), want.DT, want.RT, sch)
	}
	eng.TimesInto(&got)
	sameTimes(t, label, &got, &want)
}

// TestPipelineEngineExhaustive scores every swap pair and every relocate
// (root targets, the old parent, targets nested inside the old parent's
// subtree and ancestors of it) under PipelineModel for M in {1, 2, 8},
// pinning each Eval prediction to EvalInto on the mutated tree. At M = 1
// the pipeline times coincide with the base model, so the predictions
// must also equal the base engine's. Committed swaps and re-attaches are
// checked per node through TimesInto.
func TestPipelineEngineExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	for _, segs := range []int{1, 2, 8} {
		for trial := 0; trial < 14; trial++ {
			n := 1 + rng.Intn(17)
			var set *MulticastSet
			if trial%2 == 0 {
				set = recvTiedSet(rng, n)
			} else {
				set = randIncrSet(rng, n)
			}
			sch := randIncrSchedule(rng, set)
			// The service binds the pointer form; both must take the
			// incremental path.
			var cm CostModel = PipelineModel{Segments: segs}
			if trial%3 == 1 {
				cm = &PipelineModel{Segments: segs}
			}
			sch.BindModel(cm)
			var eng, baseEng Engine
			eng.Attach(sch)
			if eng.kind != kindPipe || eng.gSch != nil {
				t.Fatalf("%T: engine kind %d, want the incremental pipeline path", cm, eng.kind)
			}
			baseSch := sch.Clone()
			baseSch.BindModel(nil)
			baseEng.Attach(baseSch)
			requireModelTimes(t, &eng, sch, cm, "attach")
			var ref Times
			for _, mv := range allMoves(sch) {
				dt, rt := eng.Eval(mv)
				if segs == 1 {
					if bdt, brt := baseEng.Eval(mv); bdt != dt || brt != rt {
						t.Fatalf("M=1 %s %v: pipeline DT/RT %d/%d, base engine %d/%d", kindName(mv.Kind), mv, dt, rt, bdt, brt)
					}
				}
				undo := applyMove(t, sch, mv)
				if err := cm.EvalInto(sch, &ref); err != nil {
					t.Fatal(err)
				}
				if dt != ref.DT || rt != ref.RT {
					t.Fatalf("M=%d trial %d %s %v: Eval DT/RT = %d/%d, EvalInto after apply %d/%d\ntree after move %s",
						segs, trial, kindName(mv.Kind), mv, dt, rt, ref.DT, ref.RT, sch)
				}
				undo()
			}
			requireModelTimes(t, &eng, sch, cm, "post-eval")
			// Apply a few random moves: swaps commit in place, relocates
			// re-attach.
			for step := 0; step < 10 && n > 1; step++ {
				moves := allMoves(sch)
				mv := moves[rng.Intn(len(moves))]
				_, rt := eng.Eval(mv)
				applyMove(t, sch, mv)
				if mv.Kind == MoveSwap {
					eng.CommitSwap(mv.A, mv.B)
				} else {
					eng.Attach(sch)
				}
				if eng.RT() != rt {
					t.Fatalf("step %d %v: predicted RT %d, applied %d", step, mv, rt, eng.RT())
				}
				requireModelTimes(t, &eng, sch, cm, "applied")
			}
		}
	}
}
