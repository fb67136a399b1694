package model

import "fmt"

// MoveKind discriminates the candidate move types the heuristic searches
// propose.
type MoveKind uint8

const (
	// MoveSwap exchanges the tree positions of two attached destinations
	// (Schedule.SwapNodes semantics: positions keep their parent, rank and
	// subtree; only the occupants change).
	MoveSwap MoveKind = iota
	// MoveRelocate detaches leaf A and appends it to the end of B's
	// children list (Schedule.RemoveLeaf + InsertChild-at-tail semantics:
	// A's later siblings shift one rank earlier).
	MoveRelocate
)

// Move is one candidate schedule edit to be scored by Engine.EvalMoves.
type Move struct {
	Kind MoveKind
	// A, B are the move operands: the two swapped destinations, or the
	// relocated leaf (A) and its new parent (B).
	A, B NodeID
}

// SwapMove returns a swap candidate for destinations a and b.
func SwapMove(a, b NodeID) Move { return Move{Kind: MoveSwap, A: a, B: b} }

// RelocateMove returns a relocate candidate: leaf appended under target.
func RelocateMove(leaf, target NodeID) Move {
	return Move{Kind: MoveRelocate, A: leaf, B: target}
}

// Engine is a structure-of-arrays evaluation engine for one schedule: the
// tree is flattened into BFS layer order with every parent's children
// stored contiguously, and delivery/reception times live in flat int64
// slices indexed by position instead of per-node fields. On top of the
// flat layout the engine keeps layer-local monotone aggregates — per-layer
// prefix and suffix running maxima of both time arrays, plus per-layer
// totals — so the completion time of a candidate move is the max of a
// re-walked subtree span and O(1) complement lookups, with no per-node
// log-factor tree refresh anywhere.
//
// The key property of the layout is that the descendants of any position
// form one contiguous span per layer (children of a contiguous parent
// range are themselves contiguous), so a subtree re-walk is a linear scan
// of at most two spans per layer and the untouched remainder of each layer
// is covered by the precomputed running maxima.
//
// Three cost models run on this incremental layout: the base model, the
// link model (per-pair latencies gathered into the child fills) and the
// pipeline model, whose positions additionally carry one row of M
// per-segment completion times (see kernSegRow) so a re-walk re-derives
// whole rows. The reduce, barrier and node models score by
// clone-mutate-undo against CostModel.EvalInto on a private schedule
// mirror.
//
// Usage: Attach builds (or rebuilds, reusing every buffer) the flat
// mirror of a schedule; EvalMoves scores candidate moves against it
// without mutating anything; after a move is actually applied to the
// schedule, Attach re-syncs. The zero value is ready for use. An Engine
// is not safe for concurrent use.
type Engine struct {
	treeShape // flat structure, indexed by position (BFS layer order)

	set *MulticastSet
	sch *Schedule

	// Structure-of-arrays occupant overheads and times, by position.
	sendOf, recvOf []int64
	d, r           []int64 // delivery / reception

	// Layer-local monotone aggregates. preX[j] is the running max of X
	// over [layerStart, j) within j's layer; sufX[j] the max over
	// [j, layerEnd). layMaxX[l] is layer l's max; layPreX[l] the max over
	// layers < l and laySufX[l] the max over layers >= l (one slot past
	// the last layer holds the empty suffix).
	preD, preR, sufD, sufR []int64
	layMaxD, layMaxR       []int64
	layPreD, layPreR       []int64
	laySufD, laySufR       []int64

	dt, rt int64

	// Eval scratch: candidate reception times for re-walked positions,
	// validity-stamped so no per-move clearing is needed.
	newR  []int64
	stamp []uint32
	gen   uint32

	// Cost-model dispatch, set by Attach from the schedule's bound model.
	// The base model leaves kind zero; the link model sets lat and runs
	// the incremental machinery with latency-aware child fills; the
	// pipeline model sets segs and runs it with per-segment rows; any
	// other model scores through clone-mutate-undo against
	// CostModel.EvalInto.
	kind engineKind
	cm   CostModel
	lat  [][]int64

	// Pipeline path (kind == kindPipe). seg[j*segs+s] is B_j[s], the time
	// position j finishes receiving segment s (for the root: starts
	// sending it); the flat d/r arrays then carry the pipeline semantics
	// (first-segment arrival, last-segment completion), so the layer
	// aggregates serve the complement unchanged. newSeg holds Eval's
	// candidate rows, valid where stamped. kids is each position's child
	// count as the recurrence sees it, which evalRelocatePipe stages for
	// the old parent and the target; skip is the vacated leaf position
	// that the old parent's children re-walk passes over (0, the root's
	// position, never occurs in a children span and means none).
	segs   int
	seg    []int64
	newSeg []int64
	kids   []int64
	skip   int32

	gSch  *Schedule // generic path: mutable mirror of the attached schedule
	gTm   Times     // generic path: attached schedule's times under cm
	gEvTm Times     // generic path: per-Eval scratch times
}

// engineKind selects the Engine's evaluation path for the bound model.
type engineKind uint8

const (
	kindBase    engineKind = iota // base receive-send model
	kindLink                      // LinkModel: per-pair latency gathers
	kindPipe                      // PipelineModel: per-segment rows
	kindGeneric                   // any other model: clone-mutate-undo
)

// Attach (re)builds the engine's flat mirror of sch, reusing all internal
// buffers: after the first call at a given instance size it allocates
// nothing. Unattached destinations get position -1 and contribute zero
// times, matching the ComputeTimes convention.
//
// Attach adopts the schedule's bound cost model (Schedule.BindModel): the
// base, link and pipeline models run the incremental structure-of-arrays
// machinery (the link model's per-pair latencies and the pipeline
// model's per-segment rows still factor through the per-layer maxima),
// while the reduce, barrier and node models evaluate through
// CostModel.EvalInto on an internal schedule mirror.
func (e *Engine) Attach(sch *Schedule) {
	cm := sch.Model()
	set := sch.Set
	n := len(set.Nodes)
	e.cm, e.lat, e.kind = cm, nil, kindBase
	if !IsBase(cm) {
		switch m := cm.(type) {
		case *LinkModel:
			if len(m.Lat) != n {
				panic(fmt.Sprintf("model: Attach: latency matrix sized for %d nodes, set has %d", len(m.Lat), n))
			}
			e.kind, e.lat = kindLink, m.Lat
		case PipelineModel:
			e.attachPipe(n, m.Segments)
		case *PipelineModel:
			e.attachPipe(n, m.Segments)
		default:
			e.attachGeneric(sch, cm)
			return
		}
	}
	e.set, e.sch = set, sch

	e.treeShape.build(sch)
	e.sendOf = resizeInt64(e.sendOf, n)
	e.recvOf = resizeInt64(e.recvOf, n)
	e.d = resizeInt64(e.d, n)
	e.r = resizeInt64(e.r, n)
	e.newR = resizeInt64(e.newR, n)
	if cap(e.stamp) < n {
		e.stamp = make([]uint32, n, growCap(n))
		e.gen = 0
	}
	e.stamp = e.stamp[:n]

	// Occupant overheads as flat arrays (the SoA split of the old
	// array-of-structs Nodes access in the inner loops).
	for i := 0; i < e.m; i++ {
		nd := &set.Nodes[e.order[i]]
		e.sendOf[i] = nd.Send
		e.recvOf[i] = nd.Recv
	}

	e.refreshTimes()
	e.refreshAggregates(e.layers())
}

// attachPipe sizes the pipeline path's buffers for n nodes and M =
// segs segments.
func (e *Engine) attachPipe(n, segs int) {
	if segs < 1 {
		panic(fmt.Sprintf("model: Attach: pipeline segments must be >= 1, got %d", segs))
	}
	e.kind, e.segs = kindPipe, segs
	e.seg = resizeInt64(e.seg, n*segs)
	e.newSeg = resizeInt64(e.newSeg, n*segs)
	e.kids = resizeInt64(e.kids, n)
}

// refreshTimes recomputes the flat delivery/reception arrays in position
// order (parents precede children, so one forward pass suffices). The
// per-parent work is one kernChildTimes call: a bounds-check-free
// strength-reduced scan over contiguous children — no pointer chasing, no
// per-node dispatch. Under the link model the fill gathers each child's
// latency term from the parent occupant's matrix row instead; under the
// pipeline model each child's whole segment row derives from its
// parent's.
func (e *Engine) refreshTimes() {
	e.d[0], e.r[0] = 0, 0
	switch e.kind {
	case kindPipe:
		for i := 0; i < e.m; i++ {
			e.kids[i] = int64(e.kidHi[i] - e.kidLo[i])
		}
		kernSegRoot(e.seg[:e.segs], e.kids[0]*e.sendOf[0])
		for i := 0; i < e.m; i++ {
			e.pipeFillKids(int32(i))
		}
		return
	case kindLink:
		for i := 0; i < e.m; i++ {
			kl, kh := int(e.kidLo[i]), int(e.kidHi[i])
			if kl == kh {
				continue
			}
			wanChildTimes(e.d[kl:kh], e.r[kl:kh], e.recvOf[kl:kh], e.order[kl:kh], e.lat[e.order[i]], e.r[i], e.sendOf[i])
		}
		return
	}
	L := e.set.Latency
	for i := 0; i < e.m; i++ {
		kl, kh := int(e.kidLo[i]), int(e.kidHi[i])
		if kl == kh {
			continue
		}
		kernChildTimes(e.d[kl:kh], e.r[kl:kh], e.recvOf[kl:kh], e.r[i]+L, e.sendOf[i])
	}
}

// pipeFillAt recomputes position q's committed segment row and times
// from its parent's committed row.
//
//hnow:noalloc
func (e *Engine) pipeFillAt(q int32) {
	M := e.segs
	p := e.parentPos[q]
	off := e.rank[q]*e.sendOf[p] + e.set.Latency
	par := e.seg[int(p)*M : int(p)*M+M]
	row := e.seg[int(q)*M : int(q)*M+M]
	kernSegRow(row, par, off, e.kids[q]*e.sendOf[q], e.recvOf[q])
	e.d[q], e.r[q] = par[0]+off, row[M-1]
}

// pipeFillKids recomputes the committed rows and times of p's children.
//
//hnow:noalloc
func (e *Engine) pipeFillKids(p int32) {
	for j := e.kidLo[p]; j < e.kidHi[p]; j++ {
		e.pipeFillAt(j)
	}
}

// deliveryAt recomputes position q's delivery from its parent's current
// reception under the link model. Rank and parent are determined by the
// position, but the latency term depends on both occupants, so staged
// occupant changes (evalSwap, CommitSwap) must re-derive it.
func (e *Engine) deliveryAt(q int32) int64 {
	pp := e.parentPos[q]
	return e.r[pp] + e.rank[q]*e.sendOf[pp] + e.lat[e.order[pp]][e.order[q]]
}

// refreshAggregates rebuilds the layer-local running maxima and the
// cross-layer prefix/suffix maxima from the current time arrays: a few
// contiguous forward/backward scans over the flat slices.
func (e *Engine) refreshAggregates(layers int) {
	e.preD = resizeInt64(e.preD, e.m)
	e.preR = resizeInt64(e.preR, e.m)
	e.sufD = resizeInt64(e.sufD, e.m)
	e.sufR = resizeInt64(e.sufR, e.m)
	e.layMaxD = resizeInt64(e.layMaxD, layers)
	e.layMaxR = resizeInt64(e.layMaxR, layers)
	e.layPreD = resizeInt64(e.layPreD, layers+1)
	e.layPreR = resizeInt64(e.layPreR, layers+1)
	e.laySufD = resizeInt64(e.laySufD, layers+1)
	e.laySufR = resizeInt64(e.laySufR, layers+1)

	for l := 0; l < layers; l++ {
		e.refreshLayerAggregates(l)
	}
	e.refreshCrossLayer(layers)
}

// refreshCrossLayer re-derives the cross-layer prefix/suffix maxima and
// the completion times from the per-layer maxima, in O(layers).
func (e *Engine) refreshCrossLayer(layers int) {
	preD, preR := int64(0), int64(0)
	for l := 0; l < layers; l++ {
		e.layPreD[l], e.layPreR[l] = preD, preR
		preD, preR = max(preD, e.layMaxD[l]), max(preR, e.layMaxR[l])
	}
	e.layPreD[layers], e.layPreR[layers] = preD, preR
	sufD, sufR := int64(0), int64(0)
	e.laySufD[layers], e.laySufR[layers] = 0, 0
	for l := layers - 1; l >= 0; l-- {
		sufD, sufR = max(sufD, e.layMaxD[l]), max(sufR, e.layMaxR[l])
		e.laySufD[l], e.laySufR[l] = sufD, sufR
	}
	e.dt, e.rt = sufD, sufR
}

// CommitSwap applies a swap of destinations a and b to the engine in
// place, to be used together with Schedule.SwapNodes(a, b) on the
// attached schedule. A swap leaves the tree shape invariant — positions
// keep their parent, rank and children span — so the occupant arrays
// exchange entries, the two subtrees' times are re-walked as contiguous
// spans (the occupant arrays already carry the new overheads, so the
// walk needs no overrides), and only the touched layers rebuild their
// running maxima; the cross-layer prefixes and suffixes refresh in
// O(layers). Acceptance-heavy loops (annealing) commit this way instead
// of paying Attach's pointer-heavy BFS rebuild.
//
//hnow:noalloc
func (e *Engine) CommitSwap(a, b NodeID) {
	if e.kind == kindGeneric {
		e.commitSwapGeneric(a, b)
		return
	}
	qa, qb := e.pos[a], e.pos[b]
	if qa < 0 || qb < 0 {
		panic(fmt.Sprintf("model: CommitSwap of unattached node (%d, %d)", a, b))
	}
	if qa == qb {
		return
	}
	e.order[qa], e.order[qb] = b, a
	e.pos[a], e.pos[b] = qb, qa
	e.sendOf[qa], e.sendOf[qb] = e.sendOf[qb], e.sendOf[qa]
	e.recvOf[qa], e.recvOf[qb] = e.recvOf[qb], e.recvOf[qa]

	q1, q2, nested := e.nestOrder(qa, qb)
	// Base model: delivery is position-determined, so only the reception
	// changes at the swapped positions. Link model: the latency term
	// depends on the new occupant, so the delivery re-derives too.
	// Pipeline model: the occupant's overheads reshape the whole row.
	if e.kind != kindBase {
		e.commitSeedExt(q1)
	} else {
		e.r[q1] = e.d[q1] + e.recvOf[q1]
	}
	pend := int32(-1)
	if !nested { // disjoint subtrees: q2's own seed re-derives the same way
		pend = q2
		if e.kind != kindBase {
			e.commitSeedExt(q2)
		} else {
			e.r[q2] = e.d[q2] + e.recvOf[q2]
		}
	}
	l := int(e.layerOf[q1])
	var lo, hi [2]int32
	ns := 1
	lo[0], hi[0] = q1, q1+1
	if pend >= 0 && int(e.layerOf[pend]) == l {
		ns = insertSpan(&lo, &hi, ns, pend)
		pend = -1
	}
	L := e.set.Latency
	for ns > 0 || pend >= 0 {
		if ns > 0 {
			e.refreshLayerAggregates(l)
		}
		var nlo, nhi [2]int32
		nns := 0
		for si := 0; si < ns; si++ {
			cs, ce := e.kidLo[lo[si]], e.kidHi[hi[si]-1]
			if cs >= ce {
				continue
			}
			for p := lo[si]; p < hi[si]; p++ {
				kl, kh := int(e.kidLo[p]), int(e.kidHi[p])
				if kl == kh {
					continue
				}
				if e.kind != kindBase {
					if e.kind == kindLink {
						wanChildTimes(e.d[kl:kh], e.r[kl:kh], e.recvOf[kl:kh], e.order[kl:kh], e.lat[e.order[p]], e.r[p], e.sendOf[p])
					} else {
						e.pipeFillKids(p)
					}
				} else {
					kernChildTimes(e.d[kl:kh], e.r[kl:kh], e.recvOf[kl:kh], e.r[p]+L, e.sendOf[p])
				}
			}
			nlo[nns], nhi[nns] = cs, ce
			nns++
		}
		lo, hi, ns = nlo, nhi, nns
		l++
		if pend >= 0 && int(e.layerOf[pend]) == l {
			ns = insertSpan(&lo, &hi, ns, pend)
			pend = -1
		}
	}
	// Untouched layers kept their maxima; re-derive the cross-layer
	// prefix/suffix aggregates and the completion times.
	e.refreshCrossLayer(len(e.layerOff) - 1)
}

// commitSeedExt re-derives a swapped position's committed times under
// the link or pipeline model (see CommitSwap).
func (e *Engine) commitSeedExt(q int32) {
	if e.kind == kindPipe {
		e.pipeFillAt(q)
		return
	}
	e.d[q] = e.deliveryAt(q)
	e.r[q] = e.d[q] + e.recvOf[q]
}

// nestOrder orders two positions by layer (q1 the shallower) and reports
// whether q1 is an ancestor of q2 or equal to it, i.e. whether one
// subtree re-walk from q1 covers both.
func (e *Engine) nestOrder(qa, qb int32) (q1, q2 int32, nested bool) {
	q1, q2 = qa, qb
	if e.layerOf[q1] > e.layerOf[q2] {
		q1, q2 = q2, q1
	}
	p := q2
	for e.layerOf[p] > e.layerOf[q1] {
		p = e.parentPos[p]
	}
	return q1, q2, p == q1
}

// refreshLayerAggregates rebuilds one layer's running maxima from the
// current time arrays: one forward and one backward kernel pass over the
// layer's contiguous position range.
func (e *Engine) refreshLayerAggregates(l int) {
	s, t := int(e.layerOff[l]), int(e.layerOff[l+1])
	d, r := e.d[s:t], e.r[s:t]
	e.layMaxD[l], e.layMaxR[l] = kernPrefixMax2(e.preD[s:t], e.preR[s:t], d, r)
	kernSuffixMax2(e.sufD[s:t], e.sufR[s:t], d, r)
}

// DT returns the delivery completion time of the attached schedule.
func (e *Engine) DT() int64 { return e.dt }

// RT returns the reception completion time of the attached schedule, the
// objective the paper minimizes.
func (e *Engine) RT() int64 { return e.rt }

// TimesInto writes the attached schedule's times into tm in node index
// order, exactly as the bound model's EvalInto would produce them
// (unattached nodes get zero times; under the pipeline model Delivery is
// the first-segment arrival and Reception the last-segment completion).
// It reuses tm's buffers and allocates nothing after warmup.
func (e *Engine) TimesInto(tm *Times) {
	if e.kind == kindGeneric {
		n := len(e.set.Nodes)
		tm.Delivery = resizeInt64(tm.Delivery, n)
		tm.Reception = resizeInt64(tm.Reception, n)
		copy(tm.Delivery, e.gTm.Delivery)
		copy(tm.Reception, e.gTm.Reception)
		tm.DT, tm.RT = e.gTm.DT, e.gTm.RT
		return
	}
	n := len(e.set.Nodes)
	tm.Delivery = resizeInt64(tm.Delivery, n)
	tm.Reception = resizeInt64(tm.Reception, n)
	if e.m < n {
		for i := range tm.Delivery {
			tm.Delivery[i] = 0
			tm.Reception[i] = 0
		}
	}
	for j := 0; j < e.m; j++ {
		v := e.order[j]
		tm.Delivery[v] = e.d[j]
		tm.Reception[v] = e.r[j]
	}
	tm.DT, tm.RT = e.dt, e.rt
}

// EvalMoves scores a batch of candidate moves against the attached
// schedule in one pass over the flat arrays: out[i] receives the
// reception completion time the schedule would have after moves[i]. No
// move is applied; the engine, schedule and aggregates are unchanged, so
// there is nothing to undo and the whole neighborhood shares the
// aggregates built by the last Attach. len(out) must equal len(moves).
// Steady-state the call allocates nothing.
//
// Move operands must be currently attached (and, for MoveRelocate, A must
// be a leaf and B must not be A), mirroring the preconditions of the
// schedule edits they model.
//
//hnow:noalloc
func (e *Engine) EvalMoves(moves []Move, out []int64) {
	if len(moves) != len(out) {
		panic(fmt.Sprintf("model: EvalMoves: %d moves, %d output slots", len(moves), len(out)))
	}
	for i, mv := range moves {
		_, out[i] = e.Eval(mv)
	}
}

// Eval scores a single candidate move, returning the delivery and
// reception completion times the schedule would have after it. See
// EvalMoves for the preconditions.
//
//hnow:noalloc
func (e *Engine) Eval(mv Move) (dt, rt int64) {
	if e.kind >= kindPipe {
		return e.evalExt(mv)
	}
	switch mv.Kind {
	case MoveSwap:
		return e.evalSwap(mv.A, mv.B)
	case MoveRelocate:
		return e.evalRelocate(mv.A, mv.B)
	default:
		panic(fmt.Sprintf("model: Eval: unknown move kind %d", mv.Kind))
	}
}

// nextGen advances the scratch stamp, clearing it on wraparound.
func (e *Engine) nextGen() uint32 {
	e.gen++
	if e.gen == 0 {
		for i := range e.stamp {
			e.stamp[i] = 0
		}
		e.gen = 1
	}
	return e.gen
}

// evalSwap scores exchanging the positions of destinations a and b. The
// tree shape is invariant under a swap — only the occupants of the two
// positions change — so the affected positions are exactly the two
// subtrees (one, when nested), walked as contiguous spans per layer.
//
// Instead of threading occupant overrides through the walk (a per-child
// branch on node metadata in the hottest loop), the post-swap overheads
// are staged directly into the flat sendOf/recvOf arrays and swapped back
// after the walk: the walk itself is then identical to the no-override
// case and every inner loop stays branch-free. The engine is documented
// as not safe for concurrent use, so the transient staging is invisible
// to callers.
func (e *Engine) evalSwap(a, b NodeID) (int64, int64) {
	if a == b {
		return e.dt, e.rt
	}
	q1, q2 := e.pos[a], e.pos[b]
	if q1 < 0 || q2 < 0 {
		panic(fmt.Sprintf("model: Eval: swap of unattached node (%d, %d)", a, b))
	}
	q1, q2, nested := e.nestOrder(q1, q2)

	// Stage the post-swap occupant overheads (and, under the link model,
	// occupants — latency terms are occupant-dependent) in place.
	e.sendOf[q1], e.sendOf[q2] = e.sendOf[q2], e.sendOf[q1]
	e.recvOf[q1], e.recvOf[q2] = e.recvOf[q2], e.recvOf[q1]
	if e.lat != nil {
		e.order[q1], e.order[q2] = e.order[q2], e.order[q1]
	}

	gen := e.nextGen()
	// Base model: q1's delivery is position-determined, hence unchanged.
	// Link model: the incoming latency depends on the staged occupant, so
	// the seed delivery re-derives from the parent's current reception.
	d1 := e.d[q1]
	if e.lat != nil {
		d1 = e.deliveryAt(q1)
	}
	movD := d1
	e.newR[q1] = d1 + e.recvOf[q1]
	e.stamp[q1] = gen
	movR := e.newR[q1]
	pend := int32(-1)
	if !nested {
		pend = q2
		d2 := e.d[q2]
		if e.lat != nil {
			d2 = e.deliveryAt(q2)
		}
		e.newR[q2] = d2 + e.recvOf[q2]
		e.stamp[q2] = gen
		movD = max(movD, d2)
		movR = max(movR, e.newR[q2])
	}
	dt, rt := e.walkSpans(q1, pend, gen, movD, movR)

	// Unstage: the engine must be left exactly as attached.
	e.sendOf[q1], e.sendOf[q2] = e.sendOf[q2], e.sendOf[q1]
	e.recvOf[q1], e.recvOf[q2] = e.recvOf[q2], e.recvOf[q1]
	if e.lat != nil {
		e.order[q1], e.order[q2] = e.order[q2], e.order[q1]
	}
	return dt, rt
}

// evalRelocate scores detaching leaf and appending it under target. The
// affected positions are the leaf's later siblings (one rank earlier) and
// their subtrees; the leaf's vacated position is excluded from the
// complement and its value at the new position is added separately once
// the walk has fixed its new parent's reception.
func (e *Engine) evalRelocate(leaf, target NodeID) (int64, int64) {
	pl, po, pt := e.relocatePositions(leaf, target)
	gen := e.nextGen()
	// Seed the later siblings with their rank-shifted times; the vacated
	// leaf position contributes nothing (and is childless, so the walk
	// skips it naturally). Each sibling moves one rank earlier, so its
	// delivery is the predecessor's old delivery: a strength-reduced
	// kernel scan starting from the vacated rank.
	movD, movR := int64(0), int64(0)
	L := e.set.Latency
	rp, sv := e.r[po], e.sendOf[po]
	sibLo, sibHi := int(pl)+1, int(e.kidHi[po])
	if sibLo < sibHi {
		if e.lat != nil {
			// Each later sibling moves one rank earlier: its delivery
			// drops by exactly one send slot and its occupant-dependent
			// latency term is unchanged, so shift the existing times.
			for j := sibLo; j < sibHi; j++ {
				dj := e.d[j] - sv
				rj := dj + e.recvOf[j]
				e.newR[j] = rj
				e.stamp[j] = gen
				movD = max(movD, dj)
				movR = max(movR, rj)
			}
		} else {
			base := rp + (e.rank[pl]-1)*sv + L
			movD, movR = kernChildCand(e.newR[sibLo:sibHi], e.recvOf[sibLo:sibHi], e.stamp[sibLo:sibHi], gen, base, sv, movD, movR)
		}
	}
	dt, rt := e.walkSpansBounds(pl, e.kidHi[po], -1, gen, movD, movR)
	// The leaf's contribution at its new position: appended after
	// target's current children (one fewer if the target is the old
	// parent itself, which just lost the leaf).
	rt2 := e.r[pt]
	if e.stamp[pt] == gen {
		rt2 = e.newR[pt]
	}
	cnt := int64(e.kidHi[pt] - e.kidLo[pt])
	if pt == po {
		cnt--
	}
	dd := rt2 + (cnt+1)*e.sendOf[pt]
	if e.lat != nil {
		dd += e.lat[e.order[pt]][e.order[pl]]
	} else {
		dd += L
	}
	rj := dd + e.recvOf[pl]
	return max(dt, dd), max(rt, rj)
}

// evalExt is Eval for the models off the base/link path: the pipeline
// model's incremental scorers and the generic clone-mutate-undo path.
func (e *Engine) evalExt(mv Move) (int64, int64) {
	if e.kind == kindGeneric {
		return e.evalGeneric(mv)
	}
	switch mv.Kind {
	case MoveSwap:
		return e.evalSwapPipe(mv.A, mv.B)
	case MoveRelocate:
		return e.evalRelocatePipe(e.relocatePositions(mv.A, mv.B))
	default:
		panic(fmt.Sprintf("model: Eval: unknown move kind %d", mv.Kind))
	}
}

// evalSwapPipe is evalSwap under the pipeline model. Positions keep
// their parent, rank and child count, so exactly the two subtrees (one,
// when nested) change; the swapped occupants' overheads are staged in
// place as in evalSwap and each re-walked position gets a fresh row.
//
//hnow:noalloc
func (e *Engine) evalSwapPipe(a, b NodeID) (int64, int64) {
	if a == b {
		return e.dt, e.rt
	}
	qa, qb := e.pos[a], e.pos[b]
	if qa < 0 || qb < 0 {
		panic(fmt.Sprintf("model: Eval: swap of unattached node (%d, %d)", a, b))
	}
	q1, q2, nested := e.nestOrder(qa, qb)
	e.sendOf[q1], e.sendOf[q2] = e.sendOf[q2], e.sendOf[q1]
	e.recvOf[q1], e.recvOf[q2] = e.recvOf[q2], e.recvOf[q1]
	gen := e.nextGen()
	movD, movR := e.pipeSeed(q1, gen, 0, 0)
	pend := int32(-1)
	if !nested {
		pend = q2
		movD, movR = e.pipeSeed(q2, gen, movD, movR)
	}
	dt, rt := e.walkSpans(q1, pend, gen, movD, movR)
	e.sendOf[q1], e.sendOf[q2] = e.sendOf[q2], e.sendOf[q1]
	e.recvOf[q1], e.recvOf[q2] = e.recvOf[q2], e.recvOf[q1]
	return dt, rt
}

// evalRelocatePipe scores moving leaf position pl from its parent po to
// the end of pt's children under the pipeline model. Unlike the base
// model, the child counts of po (one fewer) and pt (one more) enter their
// own rows from the second segment on, so the re-walk starts at po and
// pt themselves and covers all their children, not just the later
// siblings; those siblings also move one rank earlier (the skip of the
// vacated position in pipeKidsCand). pt may be the root, po itself, or
// anywhere inside po's subtree (or po inside pt's): one walk from the
// shallower of the two covers both when nested. The leaf is then scored
// as pt's new last child, with no children of its own.
//
//hnow:noalloc
func (e *Engine) evalRelocatePipe(pl, po, pt int32) (int64, int64) {
	e.kids[po]--
	e.kids[pt]++
	e.skip = pl
	gen := e.nextGen()
	q1, q2, nested := e.nestOrder(po, pt)
	movD, movR := e.pipeSeed(q1, gen, 0, 0)
	pend := int32(-1)
	if !nested {
		pend = q2
		movD, movR = e.pipeSeed(q2, gen, movD, movR)
	}
	dt, rt := e.walkSpans(q1, pend, gen, movD, movR)
	// The walk skipped the vacated position, so its scratch row is free
	// to hold the leaf's row at the new slot.
	M := e.segs
	par := e.newSeg[int(pt)*M : int(pt)*M+M]
	row := e.newSeg[int(pl)*M : int(pl)*M+M]
	off := e.kids[pt]*e.sendOf[pt] + e.set.Latency
	kernSegRow(row, par, off, 0, e.recvOf[pl])
	dt, rt = max(dt, par[0]+off), max(rt, row[M-1])
	e.kids[po]++
	e.kids[pt]--
	e.skip = 0
	return dt, rt
}

// pipeSeed computes the candidate row of a re-walk root q from its
// parent's committed row (the source's row when q is the root, whose own
// times stay zero), stamps it and folds its times into the running
// maxima.
//
//hnow:noalloc
func (e *Engine) pipeSeed(q int32, gen uint32, movD, movR int64) (int64, int64) {
	M := e.segs
	row := e.newSeg[int(q)*M : int(q)*M+M]
	e.stamp[q] = gen
	p := e.parentPos[q]
	if p < 0 {
		kernSegRoot(row, e.kids[q]*e.sendOf[q])
		return movD, movR
	}
	off := e.rank[q]*e.sendOf[p] + e.set.Latency
	par := e.seg[int(p)*M : int(p)*M+M]
	kernSegRow(row, par, off, e.kids[q]*e.sendOf[q], e.recvOf[q])
	return max(movD, par[0]+off), max(movR, row[M-1])
}

// pipeKidsCand derives candidate rows for all of p's children from p's
// stamped candidate row, skipping the vacated leaf of a relocate (its
// later siblings thereby move one rank earlier), and folds their times
// into the running maxima.
//
//hnow:noalloc
func (e *Engine) pipeKidsCand(p int32, gen uint32, movD, movR int64) (int64, int64) {
	M := e.segs
	par := e.newSeg[int(p)*M : int(p)*M+M]
	sp := e.sendOf[p]
	off := e.set.Latency
	for j := e.kidLo[p]; j < e.kidHi[p]; j++ {
		if j == e.skip {
			continue
		}
		off += sp
		row := e.newSeg[int(j)*M : int(j)*M+M]
		kernSegRow(row, par, off, e.kids[j]*e.sendOf[j], e.recvOf[j])
		e.stamp[j] = gen
		movD = max(movD, par[0]+off)
		movR = max(movR, row[M-1])
	}
	return movD, movR
}

// relocatePositions validates a relocate's operands and returns the
// positions of the leaf, its parent and the target.
func (e *Engine) relocatePositions(leaf, target NodeID) (pl, po, pt int32) {
	pl, pt = e.pos[leaf], e.pos[target]
	if pl < 0 || pt < 0 || leaf == target {
		panic(fmt.Sprintf("model: Eval: invalid relocate (%d -> %d)", leaf, target))
	}
	po = e.parentPos[pl]
	if po < 0 {
		panic(fmt.Sprintf("model: Eval: relocate of the root or an unattached node %d", leaf))
	}
	if e.kidLo[pl] != e.kidHi[pl] {
		panic(fmt.Sprintf("model: Eval: relocate of non-leaf %d", leaf))
	}
	return pl, po, pt
}

// walkSpans is walkSpansBounds for a single-position top span.
func (e *Engine) walkSpans(top, pend int32, gen uint32, movD, movR int64) (int64, int64) {
	return e.walkSpansBounds(top, top+1, pend, gen, movD, movR)
}

// walkSpansBounds re-walks the descendants of the top span [lo0, hi0)
// (plus, for disjoint swaps, the pending second root) layer by layer,
// computing candidate times for every affected position into the stamped
// scratch, and combines the running maxima of the walked values with the
// layer aggregates of the untouched complement. Candidate occupant
// overheads must already be staged in sendOf/recvOf (see evalSwap), so
// the per-layer expansion is a pure kernel scan with no per-child
// branches. Returns the candidate (DT, RT).
func (e *Engine) walkSpansBounds(lo0, hi0, pend int32, gen uint32, movD, movR int64) (int64, int64) {
	L := e.set.Latency
	l := int(e.layerOf[lo0])
	complD, complR := e.layPreD[l], e.layPreR[l]
	var lo, hi [2]int32
	ns := 1
	lo[0], hi[0] = lo0, hi0
	if pend >= 0 && int(e.layerOf[pend]) == l {
		ns = insertSpan(&lo, &hi, ns, pend)
		pend = -1
	}
	for ns > 0 || pend >= 0 {
		s, t := e.layerOff[l], e.layerOff[l+1]
		// Complement within this layer: the untouched prefix, the gap
		// between two disjoint spans (a direct scan of existing values),
		// and the untouched suffix.
		if ns == 0 {
			complD = max(complD, e.layMaxD[l])
			complR = max(complR, e.layMaxR[l])
		} else {
			if lo[0] > s {
				complD = max(complD, e.preD[lo[0]])
				complR = max(complR, e.preR[lo[0]])
			}
			if ns == 2 && hi[0] < lo[1] {
				complD, complR = kernMax2(e.d[hi[0]:lo[1]], e.r[hi[0]:lo[1]], complD, complR)
			}
			if last := hi[ns-1]; last < t {
				complD = max(complD, e.sufD[last])
				complR = max(complR, e.sufR[last])
			}
		}
		// Expand each span into its children span on the next layer,
		// deriving child times from the stamped parent receptions.
		var nlo, nhi [2]int32
		nns := 0
		for si := 0; si < ns; si++ {
			cs, ce := e.kidLo[lo[si]], e.kidHi[hi[si]-1]
			if cs >= ce {
				continue
			}
			for p := lo[si]; p < hi[si]; p++ {
				kl, kh := int(e.kidLo[p]), int(e.kidHi[p])
				if kl == kh {
					continue
				}
				if e.kind != kindBase {
					if e.kind == kindLink {
						movD, movR = wanChildCand(e.newR[kl:kh], e.recvOf[kl:kh], e.stamp[kl:kh], e.order[kl:kh], e.lat[e.order[p]], gen, e.newR[p], e.sendOf[p], movD, movR)
					} else {
						movD, movR = e.pipeKidsCand(p, gen, movD, movR)
					}
				} else {
					movD, movR = kernChildCand(e.newR[kl:kh], e.recvOf[kl:kh], e.stamp[kl:kh], gen, e.newR[p]+L, e.sendOf[p], movD, movR)
				}
			}
			nlo[nns], nhi[nns] = cs, ce
			nns++
		}
		lo, hi, ns = nlo, nhi, nns
		l++
		if pend >= 0 && int(e.layerOf[pend]) == l {
			ns = insertSpan(&lo, &hi, ns, pend)
			pend = -1
		}
	}
	complD = max(complD, e.laySufD[l])
	complR = max(complR, e.laySufR[l])
	return max(complD, movD), max(complR, movR)
}

// insertSpan adds the single-position span [p, p+1) to the ordered span
// set. Disjoint subtrees produce at most two spans per layer, so ns never
// exceeds 2.
func insertSpan(lo, hi *[2]int32, ns int, p int32) int {
	if ns == 1 && p < lo[0] {
		lo[1], hi[1] = lo[0], hi[0]
		lo[0], hi[0] = p, p+1
		return 2
	}
	lo[ns], hi[ns] = p, p+1
	return ns + 1
}

// resizeInt32 returns s with length n, reusing capacity when possible and
// rounding fresh allocations up to a power of two (see resizeInt64).
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, growCap(n))
	}
	return s[:n]
}

// resizeNodeID is resizeInt32 for NodeID slices.
func resizeNodeID(s []NodeID, n int) []NodeID {
	if cap(s) < n {
		return make([]NodeID, n, growCap(n))
	}
	return s[:n]
}

// attachGeneric is the Attach path for cost models without incremental
// engine support (reduce, barrier, node): the engine keeps a private
// mutable mirror of the schedule and scores through CostModel.EvalInto.
// The flat structure-of-arrays state is left stale and must not be
// consulted while kind is kindGeneric.
func (e *Engine) attachGeneric(sch *Schedule, cm CostModel) {
	e.set, e.sch = sch.Set, sch
	e.cm, e.lat, e.kind = cm, nil, kindGeneric
	if e.gSch == nil || len(e.gSch.parent) != len(sch.parent) {
		e.gSch = sch.Clone()
	} else {
		e.gSch.Set = sch.Set
		if err := e.gSch.CopyFrom(sch); err != nil {
			panic(fmt.Sprintf("model: Attach: %v", err))
		}
	}
	if err := cm.EvalInto(e.gSch, &e.gTm); err != nil {
		panic(fmt.Sprintf("model: Attach: %v", err))
	}
	e.dt, e.rt = e.gTm.DT, e.gTm.RT
}

// evalGeneric scores one candidate move on the generic path: apply the
// move to the internal mirror, evaluate the bound model into per-Eval
// scratch, and undo the move exactly. Invalid operands panic with the
// same intent as the structure-of-arrays path.
func (e *Engine) evalGeneric(mv Move) (int64, int64) {
	s := e.gSch
	switch mv.Kind {
	case MoveSwap:
		if mv.A == mv.B {
			return e.dt, e.rt
		}
		if err := s.SwapNodes(mv.A, mv.B); err != nil {
			panic(fmt.Sprintf("model: Eval: %v", err))
		}
		everr := e.cm.EvalInto(s, &e.gEvTm)
		if err := s.SwapNodes(mv.A, mv.B); err != nil {
			panic(fmt.Sprintf("model: Eval: undo: %v", err))
		}
		if everr != nil {
			panic(fmt.Sprintf("model: Eval: %v", everr))
		}
		return e.gEvTm.DT, e.gEvTm.RT
	case MoveRelocate:
		if mv.A == mv.B {
			panic(fmt.Sprintf("model: Eval: invalid relocate (%d -> %d)", mv.A, mv.B))
		}
		p0, i0, err := s.RemoveLeaf(mv.A)
		if err != nil {
			panic(fmt.Sprintf("model: Eval: %v", err))
		}
		if err := s.InsertChild(mv.B, mv.A, len(s.children[mv.B])); err != nil {
			if uerr := s.InsertChild(p0, mv.A, i0); uerr != nil {
				panic(fmt.Sprintf("model: Eval: undo: %v", uerr))
			}
			panic(fmt.Sprintf("model: Eval: %v", err))
		}
		everr := e.cm.EvalInto(s, &e.gEvTm)
		if _, _, err := s.RemoveLeaf(mv.A); err != nil {
			panic(fmt.Sprintf("model: Eval: undo: %v", err))
		}
		if err := s.InsertChild(p0, mv.A, i0); err != nil {
			panic(fmt.Sprintf("model: Eval: undo: %v", err))
		}
		if everr != nil {
			panic(fmt.Sprintf("model: Eval: %v", everr))
		}
		return e.gEvTm.DT, e.gEvTm.RT
	default:
		panic(fmt.Sprintf("model: Eval: unknown move kind %d", mv.Kind))
	}
}

// commitSwapGeneric is CommitSwap on the generic path: mirror the swap on
// the internal schedule copy and re-evaluate the bound model.
func (e *Engine) commitSwapGeneric(a, b NodeID) {
	if a == b {
		return
	}
	if err := e.gSch.SwapNodes(a, b); err != nil {
		panic(fmt.Sprintf("model: CommitSwap: %v", err))
	}
	if err := e.cm.EvalInto(e.gSch, &e.gTm); err != nil {
		panic(fmt.Sprintf("model: CommitSwap: %v", err))
	}
	e.dt, e.rt = e.gTm.DT, e.gTm.RT
}
