package heur

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
)

// BeamSearch generalizes the paper's greedy construction: destinations are
// inserted in the same sorted order, but instead of committing to the
// single earliest-completing sender, the search keeps the Width most
// promising partial schedules and branches over the Branch earliest
// sender choices at each step. Width = Branch = 1 reproduces greedy
// exactly; larger widths explore the structurally different trees that
// experiment E11 shows are needed to close greedy's residual gap. The
// leaf-reversal post-pass is applied to every complete candidate.
type BeamSearch struct {
	// Width is the beam size (default 8).
	Width int
	// Branch is the number of sender alternatives expanded per state
	// (default 3).
	Branch int
	// Model is the cost model to optimize (nil or BaseModel: the base
	// receive-send objective). Under the link model the construction keys
	// carry the per-pair latencies; under the other models the base keys
	// guide construction and the model scores the finished candidates. The
	// model-aware greedy always joins the final pool, so the result is
	// never worse than the scenario greedy under the model.
	Model model.CostModel
}

// Name implements model.Scheduler.
func (BeamSearch) Name() string { return "beam-search" }

// beamState is a partial schedule under construction.
type beamState struct {
	parent    []model.NodeID // parent assignment (-1 = unattached)
	rank      []int64        // child rank at the parent
	sends     []int64        // transmissions scheduled per node
	reception []int64        // r(v) for attached nodes
	maxRecep  int64          // partial completion time
	sumRecep  int64          // sum of reception, the secondary beam key
}

func newBeamState(n int) *beamState {
	return &beamState{
		parent:    make([]model.NodeID, n),
		rank:      make([]int64, n),
		sends:     make([]int64, n),
		reception: make([]int64, n),
	}
}

// copyFrom overwrites s with o; both are sized for the same instance.
func (s *beamState) copyFrom(o *beamState) {
	copy(s.parent, o.parent)
	copy(s.rank, o.rank)
	copy(s.sends, o.sends)
	copy(s.reception, o.reception)
	s.maxRecep, s.sumRecep = o.maxRecep, o.sumRecep
}

// beamOption is one sender choice for the destination being inserted.
type beamOption struct {
	key  int64 // delivery completion of the new assignment
	from model.NodeID
}

// less orders options by key, ties by sender id: a total order, so the
// selected prefix is the same whichever way it is computed.
func (o beamOption) less(p beamOption) bool {
	if o.key != p.key {
		return o.key < p.key
	}
	return o.from < p.from
}

// Schedule implements model.Scheduler.
func (b BeamSearch) Schedule(set *model.MulticastSet) (*model.Schedule, error) {
	width := b.Width
	if width <= 0 {
		width = 8
	}
	branch := b.Branch
	if branch <= 0 {
		branch = 3
	}
	cm := b.Model
	if !model.IsBase(cm) {
		if err := cm.Validate(set); err != nil {
			return nil, err
		}
	}
	var lat [][]int64 // link model: per-pair latencies in the beam keys
	if lm, ok := cm.(*model.LinkModel); ok {
		lat = lm.Lat
	}
	n := len(set.Nodes)
	order := set.SortedDestinations()
	L := set.Latency
	init := newBeamState(n)
	for i := range init.parent {
		init.parent[i] = -1
	}
	init.parent[0] = 0 // mark attached; the root's stored parent is unused
	beam := []*beamState{init}
	// Two recycled generations of width*branch states: each step expands
	// the current beam into the spare pool, whose states belong to the
	// generation before last and are no longer referenced.
	pools := [2][]*beamState{make([]*beamState, width*branch), make([]*beamState, width*branch)}
	for g := range pools {
		for i := range pools[g] {
			pools[g][i] = newBeamState(n)
		}
	}
	options := make([]beamOption, 0, branch)
	for step, pi := range order {
		pool := pools[step%2]
		next := pool[:0]
		for _, st := range beam {
			// Sender options: the `branch` earliest next delivery
			// completions over attached nodes, in (key, id) order.
			options = options[:0]
			for v := 0; v < n; v++ {
				if st.parent[v] == -1 && v != 0 {
					continue
				}
				lt := L
				if lat != nil {
					lt = lat[v][pi]
				}
				op := beamOption{key: st.reception[v] + (st.sends[v]+1)*set.Nodes[v].Send + lt, from: model.NodeID(v)}
				options = insertOption(options, op, branch)
			}
			for _, op := range options {
				ns := pool[len(next)]
				ns.copyFrom(st)
				ns.sends[op.from]++
				ns.parent[pi] = op.from
				ns.rank[pi] = ns.sends[op.from]
				ns.reception[pi] = op.key + set.Nodes[pi].Recv
				ns.sumRecep += ns.reception[pi]
				if ns.reception[pi] > ns.maxRecep {
					ns.maxRecep = ns.reception[pi]
				}
				next = append(next, ns)
			}
		}
		// Keep the Width most promising states: primary key partial
		// completion, secondary the sum of reception times (less total
		// lateness keeps more slack for the remaining insertions).
		sort.Slice(next, func(i, j int) bool {
			if next[i].maxRecep != next[j].maxRecep {
				return next[i].maxRecep < next[j].maxRecep
			}
			return next[i].sumRecep < next[j].sumRecep
		})
		if len(next) > width {
			next = next[:width]
		}
		beam = next
	}
	// Materialize every beam candidate, leaf-reverse it, keep the best.
	// Candidates share one reusable engine whose flat layout is rebuilt
	// per schedule, so the final scoring pass allocates nothing beyond
	// the materialized trees themselves.
	var best *model.Schedule
	var bestRT int64
	var eng model.Engine
	score := func(sch *model.Schedule) {
		eng.Attach(sch)
		if rt := eng.RT(); best == nil || rt < bestRT {
			best, bestRT = sch, rt
		}
	}
	for _, st := range beam {
		sch, err := materialize(set, st)
		if err != nil {
			return nil, err
		}
		if model.IsBase(cm) {
			if _, err := core.ReverseLeaves(sch); err != nil {
				return nil, err
			}
			score(sch)
			continue
		}
		// Model mode: the reversal permutation is base-guided, so build it
		// on an untagged clone and let the model pick between the plain and
		// the reversed tree.
		rev := sch.Clone()
		if _, err := core.ReverseLeaves(rev); err != nil {
			return nil, err
		}
		sch.BindModel(cm)
		rev.BindModel(cm)
		score(sch)
		score(rev)
	}
	if !model.IsBase(cm) {
		// Guarantee the result is never worse than the scenario greedy
		// under the model, even when the base-guided beam keys mislead.
		g, err := ModelGreedy{Model: cm, Reversal: true}.Schedule(set)
		if err != nil {
			return nil, err
		}
		score(g)
	}
	if best == nil {
		return nil, fmt.Errorf("heur: beam search produced no schedule")
	}
	return best, nil
}

func materialize(set *model.MulticastSet, st *beamState) (*model.Schedule, error) {
	n := len(set.Nodes)
	kids := make([][]model.NodeID, n)
	for v := 1; v < n; v++ {
		p := st.parent[v]
		if p == -1 {
			return nil, fmt.Errorf("heur: beam state incomplete at node %d", v)
		}
		kids[p] = append(kids[p], model.NodeID(v))
	}
	for p := range kids {
		list := kids[p]
		sort.Slice(list, func(i, j int) bool { return st.rank[list[i]] < st.rank[list[j]] })
	}
	sch := model.NewSchedule(set)
	queue := []model.NodeID{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range kids[v] {
			if err := sch.AddChild(v, c); err != nil {
				return nil, err
			}
			queue = append(queue, c)
		}
	}
	return sch, nil
}

// insertOption adds op to the ascending list ops, keeping at most k
// entries.
func insertOption(ops []beamOption, op beamOption, k int) []beamOption {
	if len(ops) == k {
		if !op.less(ops[k-1]) {
			return ops
		}
		ops = ops[:k-1]
	}
	i := len(ops)
	ops = append(ops, op)
	for i > 0 && op.less(ops[i-1]) {
		ops[i] = ops[i-1]
		i--
	}
	ops[i] = op
	return ops
}

var _ model.Scheduler = BeamSearch{}
