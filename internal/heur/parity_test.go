package heur

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
)

// recvTiedSet builds a set with strictly increasing sends and one shared
// receiving overhead: reception times tie constantly, so any drift in
// tie-breaking between the engine-backed loops and the mutate-and-undo
// references would surface here. Such sets are valid (the correlation
// rule forbids inversions and equal-send splits, not shared recvs).
func recvTiedSet(t testing.TB, rng *rand.Rand, n int) *model.MulticastSet {
	t.Helper()
	nodes := make([]model.Node, n+1)
	for i := range nodes {
		nodes[i] = model.Node{Send: int64(1 + rng.Intn(4)), Recv: 6}
	}
	set := &model.MulticastSet{Latency: int64(1 + rng.Intn(3)), Nodes: nodes}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	return set
}

func paritySet(t testing.TB, rng *rand.Rand, trial int) *model.MulticastSet {
	if trial%3 == 2 {
		return recvTiedSet(t, rng, 2+rng.Intn(24))
	}
	set, err := cluster.Generate(cluster.GenConfig{
		N: 2 + rng.Intn(24), K: 1 + rng.Intn(4), MaxSend: 16, Seed: rng.Int63(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestLocalSearchParityWithReference pins the engine-backed LocalSearch
// to the pre-engine mutate-and-undo loop: identical trees (not just
// identical completion times) on randomized networks including recv-tied
// ones.
func TestLocalSearchParityWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 60; trial++ {
		set := paritySet(t, rng, trial)
		ls := LocalSearch{}
		got, err := ls.Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		want, err := localSearchReference(ls, set)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: engine local search diverged from reference\nengine    %s (RT %d)\nreference %s (RT %d)",
				trial, got, model.RT(got), want, model.RT(want))
		}
	}
}

// TestAnnealingParityWithReference pins the engine-backed Annealing to
// the pre-engine loop: the proposal and acceptance sequences must consume
// the RNG identically, so the final trees match exactly across seeds.
func TestAnnealingParityWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(515151))
	for trial := 0; trial < 30; trial++ {
		set := paritySet(t, rng, trial)
		an := Annealing{Seed: int64(trial)*13 + 1, Iters: 600}
		got, err := an.Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		want, err := annealingReference(an, set)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d (seed %d): engine annealing diverged from reference\nengine    %s (RT %d)\nreference %s (RT %d)",
				trial, an.Seed, got, model.RT(got), want, model.RT(want))
		}
	}
}

// TestLocalSearchParityNonDefaultBase covers the parity across a base
// scheduler whose trees differ structurally from greedy's.
func TestLocalSearchParityNonDefaultBase(t *testing.T) {
	rng := rand.New(rand.NewSource(616161))
	for trial := 0; trial < 20; trial++ {
		set := paritySet(t, rng, trial)
		ls := LocalSearch{Base: SlowestFirst{}, MaxRounds: 8}
		got, err := ls.Schedule(set)
		if err != nil {
			t.Fatal(err)
		}
		want, err := localSearchReference(ls, set)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: diverged with slowest-first base\nengine    %s\nreference %s", trial, got, want)
		}
	}
}

// pipelineModels are the segment counts the pipeline parity tests run
// under, alternating the value form and the pointer form hnowd binds.
func pipelineModels() []model.CostModel {
	return []model.CostModel{
		model.PipelineModel{Segments: 1},
		&model.PipelineModel{Segments: 2},
		model.PipelineModel{Segments: 8},
		&model.PipelineModel{Segments: 8},
	}
}

// TestLocalSearchParityPipeline pins LocalSearch under the pipeline model
// (scored by the engine's incremental segment-row path) to the
// mutate-EvalInto-undo reference, tree for tree.
func TestLocalSearchParityPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(727272))
	for _, cm := range pipelineModels() {
		for trial := 0; trial < 12; trial++ {
			set := paritySet(t, rng, trial)
			ls := LocalSearch{Model: cm}
			got, err := ls.Schedule(set)
			if err != nil {
				t.Fatal(err)
			}
			want, err := localSearchReference(ls, set)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%#v trial %d: engine local search diverged from reference\nengine    %s\nreference %s", cm, trial, got, want)
			}
		}
	}
}

// TestAnnealingParityPipeline is the annealing counterpart: proposals,
// acceptance decisions and the incumbent best must match the reference
// under the pipeline model.
func TestAnnealingParityPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(838383))
	for _, cm := range pipelineModels() {
		for trial := 0; trial < 10; trial++ {
			set := paritySet(t, rng, trial)
			an := Annealing{Seed: int64(trial)*7 + 3, Iters: 600, Model: cm}
			got, err := an.Schedule(set)
			if err != nil {
				t.Fatal(err)
			}
			want, err := annealingReference(an, set)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%#v trial %d: engine annealing diverged from reference\nengine    %s\nreference %s", cm, trial, got, want)
			}
		}
	}
}

// BenchmarkNeighborhoodEvalMoves and BenchmarkNeighborhoodRecompute put
// the two move-evaluation strategies side by side on the same full swap
// neighborhood: batched engine scoring vs mutate + RecomputeFrom + undo
// per candidate. hnowbench -json runs the same pair into
// BENCH_engine.json.
func swapNeighborhood(set *model.MulticastSet) []model.Move {
	n := len(set.Nodes)
	var moves []model.Move
	for a := 1; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if set.Nodes[a] == set.Nodes[b] {
				continue
			}
			moves = append(moves, model.SwapMove(a, b))
		}
	}
	return moves
}

func BenchmarkNeighborhoodEvalMoves(b *testing.B) {
	set := genSet(b, 64, 11)
	sch, err := (SlowestFirst{}).Schedule(set)
	if err != nil {
		b.Fatal(err)
	}
	var eng model.Engine
	eng.Attach(sch)
	moves := swapNeighborhood(set)
	out := make([]int64, len(moves))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.EvalMoves(moves, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(moves)), "ns/move")
}

func BenchmarkNeighborhoodRecompute(b *testing.B) {
	set := genSet(b, 64, 11)
	sch, err := (SlowestFirst{}).Schedule(set)
	if err != nil {
		b.Fatal(err)
	}
	var tm model.Times
	model.ComputeTimesInto(sch, &tm)
	moves := swapNeighborhood(set)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mv := range moves {
			if err := sch.SwapNodes(mv.A, mv.B); err != nil {
				b.Fatal(err)
			}
			tm.RecomputeFrom(sch, mv.A)
			tm.RecomputeFrom(sch, mv.B)
			if err := sch.SwapNodes(mv.A, mv.B); err != nil {
				b.Fatal(err)
			}
			tm.RecomputeFrom(sch, mv.A)
			tm.RecomputeFrom(sch, mv.B)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(moves)), "ns/move")
}

// beamGolden holds BeamSearch's trees (with child order) and RTs from
// before the search recycled its states: index into the instance list
// of TestBeamSearchMatchesGolden, whether the pipeline model (M = 8) was
// bound, the RT under that model, and the tree.
var beamGolden = []struct {
	inst int
	pipe bool
	rt   int64
	tree string
}{
	{0, false, 44, "0(2(6) 1 3 8 4 5 7)"},
	{0, true, 198, "0(2(6) 1 3 8 4 5 7)"},
	{1, false, 38, "0(1(6) 4 8 9 14 16 2 7 10 12 13 3 5 11 15)"},
	{1, true, 192, "0(1(6) 4 8 9 14 16 2 7 10 12 13 3 5 11 15)"},
	{2, false, 35, "0(20(11 22 4 12) 21(19 7 14) 1 5 13 18 23 2 3 6 8 9 10 15 24 16 17)"},
	{2, true, 161, "0(20(11 22 4 12) 21(19 7 14) 1 5 13 18 23 2 3 6 8 9 10 15 24 16 17)"},
	{3, false, 64, "0(3(4 10 15 2 21 30) 6(12 20 11 24 5) 8(19 1 17 27) 18(9 23 32) 22(16 28) 25(31) 7 13 26 14 29)"},
	{3, true, 295, "0(3(4 10 15 2 21 30) 6(12 20 11 24 5) 8(19 1 17 27) 18(9 23 32) 22(16 28) 25(31) 7 13 26 14 29)"},
	{4, false, 28, "0(1(13 15 21 23 28) 2(16 19 26 29) 4(20 24 32) 5(25 30) 6(31) 3 7 8 9 10 11 12 14 17 18 22 27)"},
	{4, true, 147, "0(1(3 15 21 23 28) 2(16 19 26 29) 4(20 24 32) 5(25 30) 6(31) 7 8 9 10 11 12 13 14 17 18 22 27)"},
	{5, false, 38, "0(2(16 30 9 20 37 35) 3(22 38 13 40 12) 11(7 24 10 14) 25(26 4 34) 29(5 18) 32(28) 8 23 33 39 1 6 15 17 27 36 19 31 21)"},
	{5, true, 171, "0(2(16 30 9 20 37 35) 3(22 38 13 40 12) 11(7 24 10 14) 25(26 4 34) 29(5 18) 32(28) 8 23 33 39 1 6 15 17 27 36 19 31 21)"},
	{6, false, 24, "0(11(3 4 5 7 10) 12(8 9) 1 2 6)"},
	{6, true, 129, "0(11(7 9 10 4 8) 12(5 6) 1 3 2)"},
	{7, false, 21, "0(8(7 10 16 20) 12(11 18) 13(15) 1 2 3 4 5 6 9 14 17 19)"},
	{7, true, 105, "0(8(2 3 5 14) 12(6 19 15) 13(1) 20 4 7 9 10 17 18 11 16)"},
	{8, false, 28, "0(4(2 6 8 10 13 20 23 25 31) 5(7 11 14 17 21 28 29) 18(15 19 22 27 30) 9(26) 1 3 12 16 24 32)"},
	{8, true, 153, "0(4(11 14 21 26 1 13 6 25) 5(15 24 31 7 30 23 32) 18(29 3 20 16 28) 19(17 10 27) 9 12 22 2 8)"},
}

// TestBeamSearchMatchesGolden pins BeamSearch bit for bit to the trees
// it built when every expansion cloned a fresh state, under the base and
// the pipeline model, on clustered and recv-tied (tie-heavy) networks.
// State recycling must keep the candidate order and the beam sort's
// inputs identical, so nothing may move.
func TestBeamSearchMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1357))
	insts := []struct{ n, k int }{{8, 2}, {16, 3}, {24, 4}, {32, 3}, {32, 1}, {40, 5}, {12, 0}, {20, 0}, {32, 0}}
	sets := make([]*model.MulticastSet, len(insts))
	for i, c := range insts {
		if c.k == 0 {
			sets[i] = recvTiedSet(t, rng, c.n)
			continue
		}
		set, err := cluster.Generate(cluster.GenConfig{N: c.n, K: c.k, MaxSend: 16, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	for _, g := range beamGolden {
		var cm model.CostModel
		if g.pipe {
			cm = &model.PipelineModel{Segments: 8}
		}
		sch, err := BeamSearch{Model: cm}.Schedule(sets[g.inst])
		if err != nil {
			t.Fatal(err)
		}
		var tm model.Times
		if err := model.EvalTimes(sch, &tm); err != nil {
			t.Fatal(err)
		}
		if got := sch.String(); got != g.tree || tm.RT != g.rt {
			t.Errorf("instance %d pipeline=%v: tree %s (RT %d), want %s (RT %d)", g.inst, g.pipe, got, tm.RT, g.tree, g.rt)
		}
	}
}
