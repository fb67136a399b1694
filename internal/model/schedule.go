package model

import (
	"fmt"
	"strings"
)

// Schedule is a multicast schedule: a directed tree over the nodes of a
// MulticastSet rooted at the source (ID 0). Children lists are ordered:
// children[v][0] is the first node v transmits to, children[v][1] the
// second, and so on (the paper's "delivery ordered list of children").
type Schedule struct {
	Set      *MulticastSet
	parent   []NodeID   // parent[v] = parent of v, -1 for root / unattached
	children [][]NodeID // ordered children lists
	cm       CostModel  // bound cost model; nil means the base model
}

// BindModel tags the schedule with the cost model it was built for (nil
// restores the base model). Scenario constructors bind their plans so
// that base-model evaluation paths (ComputeTimes, RT, Timeline) refuse
// them loudly instead of silently reporting times under the wrong model;
// Engine.Attach and EvalTimes dispatch on the tag.
func (t *Schedule) BindModel(cm CostModel) { t.cm = cm }

// Model returns the schedule's bound cost model; nil means the base
// receive-send model.
func (t *Schedule) Model() CostModel { return t.cm }

// requireBase panics unless the schedule is bound to the base model; op
// names the base-model-only operation for the message.
func (t *Schedule) requireBase(op string) {
	if !IsBase(t.cm) {
		panic(fmt.Sprintf("model: %s on a schedule bound to cost model %q; evaluate with EvalTimes or an Engine", op, t.cm.Name()))
	}
}

// NewSchedule creates an empty schedule for the set: only the source is
// attached; destinations must be added with AddChild.
func NewSchedule(set *MulticastSet) *Schedule {
	n := len(set.Nodes)
	p := make([]NodeID, n)
	for i := range p {
		p[i] = -1
	}
	return &Schedule{Set: set, parent: p, children: make([][]NodeID, n)}
}

// AddChild appends child to parent's ordered children list. parent must be
// the source or an already-attached destination, and child must be an
// unattached destination.
func (t *Schedule) AddChild(parent, child NodeID) error {
	if parent < 0 || parent >= len(t.parent) || child <= 0 || child >= len(t.parent) {
		return fmt.Errorf("model: AddChild(%d, %d): node out of range [0,%d)", parent, child, len(t.parent))
	}
	if parent != 0 && t.parent[parent] == -1 {
		return fmt.Errorf("model: AddChild: parent %d not attached to the tree", parent)
	}
	if t.parent[child] != -1 {
		return fmt.Errorf("model: AddChild: child %d already attached (parent %d)", child, t.parent[child])
	}
	if parent == child {
		return fmt.Errorf("model: AddChild: self loop at %d", parent)
	}
	t.parent[child] = parent
	t.children[parent] = append(t.children[parent], child)
	return nil
}

// MustAddChild is AddChild that panics on error; for tests and literals.
func (t *Schedule) MustAddChild(parent, child NodeID) {
	if err := t.AddChild(parent, child); err != nil {
		panic(err)
	}
}

// DetachLastChild removes and returns the most recently appended child of
// v. The removed child must be a leaf (its own subtree would otherwise be
// orphaned). Used by enumerators that build schedules in stack discipline.
func (t *Schedule) DetachLastChild(v NodeID) (NodeID, error) {
	if v < 0 || v >= len(t.children) || len(t.children[v]) == 0 {
		return -1, fmt.Errorf("model: DetachLastChild(%d): no children", v)
	}
	kids := t.children[v]
	c := kids[len(kids)-1]
	if len(t.children[c]) != 0 {
		return -1, fmt.Errorf("model: DetachLastChild(%d): child %d has children", v, c)
	}
	t.children[v] = kids[:len(kids)-1]
	t.parent[c] = -1
	return c, nil
}

// RemoveLeaf detaches leaf v from its parent, wherever it sits in the
// children list, and returns the parent and v's former 0-based index so
// the caller can undo with InsertChild. Later siblings shift one rank
// earlier. Used by local-search heuristics.
func (t *Schedule) RemoveLeaf(v NodeID) (parent NodeID, index int, err error) {
	if v <= 0 || v >= len(t.parent) || t.parent[v] == -1 {
		return -1, 0, fmt.Errorf("model: RemoveLeaf(%d): not an attached destination", v)
	}
	if len(t.children[v]) != 0 {
		return -1, 0, fmt.Errorf("model: RemoveLeaf(%d): node has children", v)
	}
	p := t.parent[v]
	kids := t.children[p]
	for i, c := range kids {
		if c == v {
			t.children[p] = append(kids[:i], kids[i+1:]...)
			t.parent[v] = -1
			return p, i, nil
		}
	}
	return -1, 0, fmt.Errorf("model: RemoveLeaf(%d): inconsistent children list", v)
}

// InsertChild attaches unattached destination v under parent at the given
// 0-based index in the children list (later siblings shift one rank
// later). index == len(children) appends.
func (t *Schedule) InsertChild(parent, v NodeID, index int) error {
	if v <= 0 || v >= len(t.parent) || t.parent[v] != -1 {
		return fmt.Errorf("model: InsertChild(%d): not an unattached destination", v)
	}
	if parent < 0 || parent >= len(t.parent) || parent == v {
		return fmt.Errorf("model: InsertChild: invalid parent %d", parent)
	}
	if parent != 0 && t.parent[parent] == -1 {
		return fmt.Errorf("model: InsertChild: parent %d not attached", parent)
	}
	kids := t.children[parent]
	if index < 0 || index > len(kids) {
		return fmt.Errorf("model: InsertChild: index %d outside [0,%d]", index, len(kids))
	}
	// Grow by one and shift the tail in place: after a RemoveLeaf the
	// list still has the capacity, so an undo round trip allocates
	// nothing.
	kids = append(kids, 0)
	copy(kids[index+1:], kids[index:])
	kids[index] = v
	t.children[parent] = kids
	t.parent[v] = parent
	return nil
}

// Parent returns the parent of v, or -1 for the root or an unattached node.
func (t *Schedule) Parent(v NodeID) NodeID { return t.parent[v] }

// Children returns v's ordered children list. The returned slice is owned
// by the schedule and must not be mutated.
func (t *Schedule) Children(v NodeID) []NodeID { return t.children[v] }

// ChildRank returns the 1-based position of v in its parent's children list
// (the paper's i in d(w_i) = r(v) + i*osend(v) + L), or 0 for the root.
func (t *Schedule) ChildRank(v NodeID) int {
	p := t.parent[v]
	if p < 0 {
		return 0
	}
	for i, c := range t.children[p] {
		if c == v {
			return i + 1
		}
	}
	return 0
}

// IsLeaf reports whether v has no children.
func (t *Schedule) IsLeaf(v NodeID) bool { return len(t.children[v]) == 0 }

// Leaves returns all attached leaf destinations in ID order. The source is
// included only if it is the sole node.
func (t *Schedule) Leaves() []NodeID {
	var out []NodeID
	for v := range t.children {
		if v == 0 && len(t.Set.Nodes) > 1 {
			continue
		}
		if (v == 0 || t.parent[v] != -1) && len(t.children[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Complete reports whether every destination is attached.
func (t *Schedule) Complete() bool {
	for v := 1; v < len(t.parent); v++ {
		if t.parent[v] == -1 {
			return false
		}
	}
	return true
}

// Validate checks structural integrity: every destination attached exactly
// once, children lists consistent with parents, and the tree acyclic and
// rooted at the source.
func (t *Schedule) Validate() error {
	n := len(t.Set.Nodes)
	if len(t.parent) != n || len(t.children) != n {
		return fmt.Errorf("model: schedule sized for %d nodes, set has %d", len(t.parent), n)
	}
	if t.parent[0] != -1 {
		return fmt.Errorf("model: source has parent %d", t.parent[0])
	}
	seen := make([]bool, n)
	for v, kids := range t.children {
		for _, c := range kids {
			if c <= 0 || c >= n {
				return fmt.Errorf("model: child %d out of range", c)
			}
			if seen[c] {
				return fmt.Errorf("model: node %d appears in two children lists", c)
			}
			seen[c] = true
			if t.parent[c] != v {
				return fmt.Errorf("model: node %d in children of %d but parent[%d]=%d", c, v, c, t.parent[c])
			}
		}
	}
	for v := 1; v < n; v++ {
		if t.parent[v] == -1 {
			return fmt.Errorf("model: destination %d not attached", v)
		}
		if !seen[v] {
			return fmt.Errorf("model: destination %d has a parent but is in no children list", v)
		}
	}
	// Reachability from the root guarantees acyclicity given the above.
	reached := 1
	stack := []NodeID{0}
	visited := make([]bool, n)
	visited[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.children[v] {
			if visited[c] {
				return fmt.Errorf("model: node %d visited twice", c)
			}
			visited[c] = true
			reached++
			stack = append(stack, c)
		}
	}
	if reached != n {
		return fmt.Errorf("model: only %d of %d nodes reachable from source (cycle among destinations)", reached, n)
	}
	return nil
}

// Clone returns a deep copy of the schedule sharing the same set (and
// bound cost model, if any).
func (t *Schedule) Clone() *Schedule {
	c := &Schedule{
		Set:      t.Set,
		parent:   append([]NodeID(nil), t.parent...),
		children: make([][]NodeID, len(t.children)),
		cm:       t.cm,
	}
	for v, kids := range t.children {
		if kids != nil {
			c.children[v] = append([]NodeID(nil), kids...)
		}
	}
	return c
}

// CopyFrom makes t a structural copy of o, reusing t's slices so repeated
// snapshots (e.g. annealing's incumbent-best bookkeeping) allocate only
// when a children list outgrows its previous capacity. Both schedules must
// be sized for the same instance; t keeps its own Set pointer but adopts
// o's bound cost model.
func (t *Schedule) CopyFrom(o *Schedule) error {
	if len(t.parent) != len(o.parent) {
		return fmt.Errorf("model: CopyFrom: schedule sized for %d nodes, source has %d", len(t.parent), len(o.parent))
	}
	copy(t.parent, o.parent)
	for v, kids := range o.children {
		t.children[v] = append(t.children[v][:0], kids...)
	}
	t.cm = o.cm
	return nil
}

// Equal reports whether two schedules have identical tree structure
// including children order.
func (t *Schedule) Equal(o *Schedule) bool {
	if len(t.children) != len(o.children) {
		return false
	}
	for v := range t.children {
		if len(t.children[v]) != len(o.children[v]) {
			return false
		}
		for i := range t.children[v] {
			if t.children[v][i] != o.children[v][i] {
				return false
			}
		}
	}
	return true
}

// SwapNodes exchanges the tree positions of nodes a and b: each inherits
// the other's parent, child rank, and children list. Used by the Lemma 3
// exchange transformation and the leaf-reversal post-pass.
func (t *Schedule) SwapNodes(a, b NodeID) error {
	if a <= 0 || b <= 0 || a >= len(t.parent) || b >= len(t.parent) {
		return fmt.Errorf("model: SwapNodes(%d, %d): only attached destinations can be swapped", a, b)
	}
	if t.parent[a] == -1 || t.parent[b] == -1 {
		return fmt.Errorf("model: SwapNodes(%d, %d): node not attached", a, b)
	}
	if a == b {
		return nil
	}
	indexOf := func(list []NodeID, v NodeID) int {
		for i, x := range list {
			if x == v {
				return i
			}
		}
		return -1
	}
	pa, pb := t.parent[a], t.parent[b]
	ia, ib := indexOf(t.children[pa], a), indexOf(t.children[pb], b)
	if ia < 0 || ib < 0 {
		return fmt.Errorf("model: SwapNodes(%d, %d): inconsistent children lists", a, b)
	}
	// Exchange positions in the parents' lists. Index-based so the swap is
	// correct even when a and b share a parent.
	t.children[pa][ia] = b
	t.children[pb][ib] = a
	// Careful when one is the parent of the other: after the list surgery
	// above, recompute parents directly.
	t.parent[a], t.parent[b] = pb, pa
	if pa == b { // a was a child of b; now b sits where a was, under a.
		t.parent[b] = a
	}
	if pb == a {
		t.parent[a] = b
	}
	// Exchange children lists (subtrees stay with the position's occupant's
	// former children -- i.e. positions swap, subtrees swap owners).
	t.children[a], t.children[b] = t.children[b], t.children[a]
	for _, c := range t.children[a] {
		t.parent[c] = a
	}
	for _, c := range t.children[b] {
		t.parent[c] = b
	}
	return nil
}

// String renders the tree as nested parentheses with node IDs, e.g.
// "0(1(3 4) 2)"; children appear in delivery order.
func (t *Schedule) String() string {
	var b strings.Builder
	var rec func(v NodeID)
	rec = func(v NodeID) {
		fmt.Fprintf(&b, "%d", v)
		if len(t.children[v]) > 0 {
			b.WriteByte('(')
			for i, c := range t.children[v] {
				if i > 0 {
					b.WriteByte(' ')
				}
				rec(c)
			}
			b.WriteByte(')')
		}
	}
	rec(0)
	return b.String()
}
