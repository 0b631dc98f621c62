// Package graph materializes persist-order constraint graphs.
//
// Where internal/core summarizes persist ordering as scalar critical-path
// levels (fast, streaming, used for the throughput experiments), package
// graph builds the explicit DAG of persists and labeled ordering edges
// for moderate-sized traces. The explicit form supports:
//
//   - classifying constraints (program-order/barrier, strong persist
//     atomicity, cross-thread conflict) to reproduce the structure of the
//     paper's Figure 2;
//   - enumerating and sampling *consistent cuts* — downward-closed sets
//     of persists — which are exactly the NVRAM states a failure may
//     expose to the recovery observer (used by internal/observer);
//   - cycle detection over manually constructed graphs, reproducing the
//     paper's Figure 1 impossibility argument.
//
// The graph deliberately ignores persist coalescing: coalescing merges
// NVRAM writes but never adds ordering, so the un-coalesced DAG admits a
// superset of the recovery states — the conservative direction for
// verifying recovery correctness.
//
// Build and BuildWithBarriers share one frontier state machine (builder
// in this file, its interval frontier in frontier.go): a single pass
// over the trace that materializes each persist's edges as it goes.
// BuildWithBarriers only adds a collector reporting each persistency
// annotation's effect (barriers.go). The tests keep a per-block
// reference builder as the semantic oracle (refbuild_test.go) and pin
// the exact node order, edge order, Stats and BarrierInfo with golden
// digests (golden_test.go).
package graph

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/intervals"
	"repro/internal/memory"
	"repro/internal/trace"
)

// EdgeClass labels why a persist-order constraint exists.
type EdgeClass uint8

const (
	// ProgramOrder edges come from the issuing thread's own order:
	// every preceding persist under strict persistency, epoch
	// boundaries under epoch/strand persistency.
	ProgramOrder EdgeClass = iota
	// Atomicity edges come from strong persist atomicity: persists to
	// the same (tracking-granularity) address serialize (§4.3).
	Atomicity
	// Conflict edges propagate across threads through conflicting
	// accesses (the recovery observer's happens-before, §4).
	Conflict
)

// String names the edge class.
func (c EdgeClass) String() string {
	switch c {
	case ProgramOrder:
		return "program-order"
	case Atomicity:
		return "atomicity"
	case Conflict:
		return "conflict"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// NodeID indexes a persist node within its graph.
type NodeID int

// Edge is a directed constraint: the owning node persists only after
// node From.
type Edge struct {
	From  NodeID
	Class EdgeClass
}

// Node is one persist (one store/RMW event targeting NVRAM), or a
// manually declared persist in a hand-built graph.
type Node struct {
	ID NodeID
	// Event is the originating trace event (zero for manual nodes).
	Event trace.Event
	// Label names manual nodes (Figure 1 style examples).
	Label string
	// In holds incoming constraint edges (dependences), deduplicated.
	In []Edge
}

// Graph is a persist-order constraint graph. Nodes added by Build are
// topologically ordered by construction (every edge points backward);
// manually built graphs may contain cycles, which FindCycle exposes.
type Graph struct {
	Nodes []*Node
	// Stats describes the interval dependence frontier of a trace build
	// (zero for manual graphs); see BuildStats.
	Stats BuildStats
	// slab is preallocated node storage (see Grow): AddNode takes slots
	// from it while capacity lasts, so a trace build with a known persist
	// count performs one node allocation instead of one per persist.
	slab []Node
}

// Grow preallocates storage for n additional nodes. Nodes already added
// are unaffected. Grow is additive: a second call only replaces the
// node slab (or re-sizes Nodes) when the remaining capacity from the
// first call cannot hold n more nodes, so incremental builds that grow
// in steps don't pay a fresh allocation-and-copy per call.
func (g *Graph) Grow(n int) {
	if n <= 0 {
		return
	}
	if cap(g.slab)-len(g.slab) < n {
		g.slab = make([]Node, 0, n)
	}
	if cap(g.Nodes)-len(g.Nodes) < n {
		ns := make([]*Node, len(g.Nodes), len(g.Nodes)+n)
		copy(ns, g.Nodes)
		g.Nodes = ns
	}
}

// AddNode appends a node and returns its id.
func (g *Graph) AddNode(label string, ev trace.Event) NodeID {
	id := NodeID(len(g.Nodes))
	var n *Node
	if len(g.slab) < cap(g.slab) {
		// The slab never grows (only Grow replaces it), so taken
		// pointers stay valid.
		g.slab = g.slab[:len(g.slab)+1]
		n = &g.slab[len(g.slab)-1]
		*n = Node{ID: id, Label: label, Event: ev}
	} else {
		n = &Node{ID: id, Label: label, Event: ev}
	}
	g.Nodes = append(g.Nodes, n)
	return id
}

// AddEdge adds a constraint: to persists only after from. Duplicate
// (from, class) pairs on one node are ignored. The scan is linear;
// the trace builder uses its own O(1) dedup and only calls this on
// fresh pairs.
func (g *Graph) AddEdge(from, to NodeID, class EdgeClass) {
	n := g.Nodes[to]
	for _, e := range n.In {
		if e.From == from && e.Class == class {
			return
		}
	}
	n.In = append(n.In, Edge{From: from, Class: class})
}

// Len returns the node count.
func (g *Graph) Len() int { return len(g.Nodes) }

// EdgeCounts tallies constraint edges by class — the quantitative view
// of Figure 2: relaxing the model removes classes of edges.
func (g *Graph) EdgeCounts() map[EdgeClass]int {
	out := make(map[EdgeClass]int)
	for _, n := range g.Nodes {
		for _, e := range n.In {
			out[e.Class]++
		}
	}
	return out
}

// CriticalPath returns the longest dependence chain length (number of
// nodes on it). It must agree with core.Sim's level computation when
// coalescing is disabled; tests cross-validate the two. Panics on
// cyclic graphs.
func (g *Graph) CriticalPath() int64 {
	if cyc := g.FindCycle(); cyc != nil {
		panic("graph: CriticalPath on cyclic graph")
	}
	depth := make([]int64, len(g.Nodes))
	var longest int64
	// Nodes are in topological order for trace-built graphs; manual
	// acyclic graphs may be out of order, so iterate to fixpoint-free
	// via DFS memoization instead.
	var visit func(NodeID) int64
	visiting := make([]bool, len(g.Nodes))
	visited := make([]bool, len(g.Nodes))
	visit = func(id NodeID) int64 {
		if visited[id] {
			return depth[id]
		}
		visiting[id] = true
		d := int64(1)
		for _, e := range g.Nodes[id].In {
			if dd := visit(e.From) + 1; dd > d {
				d = dd
			}
		}
		visiting[id] = false
		visited[id] = true
		depth[id] = d
		return d
	}
	for i := range g.Nodes {
		if d := visit(NodeID(i)); d > longest {
			longest = d
		}
	}
	return longest
}

// FindCycle returns the node ids of one directed cycle, or nil if the
// graph is acyclic. Edges are interpreted as From → node.
func (g *Graph) FindCycle() []NodeID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(g.Nodes))
	parent := make([]NodeID, len(g.Nodes))
	// succ lists for forward traversal.
	succ := make([][]NodeID, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, e := range n.In {
			succ[e.From] = append(succ[e.From], n.ID)
		}
	}
	var cycle []NodeID
	var dfs func(NodeID) bool
	dfs = func(u NodeID) bool {
		color[u] = gray
		for _, v := range succ[u] {
			if color[v] == gray {
				// Found a back edge v ... u -> v: reconstruct.
				cycle = []NodeID{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse into forward order v -> ... -> u.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
			if color[v] == white {
				parent[v] = u
				if dfs(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for i := range g.Nodes {
		if color[i] == white && dfs(NodeID(i)) {
			return cycle
		}
	}
	return nil
}

// DOT renders the constraint graph in Graphviz format: persists as
// nodes (labeled with thread and address, or the manual label), edges
// colored by class (program-order black, atomicity red, conflict
// blue). Intended for small graphs — a few dozen inserts already make
// a poster.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", name)
	for _, n := range g.Nodes {
		label := n.Label
		if label == "" {
			label = fmt.Sprintf("#%d t%d\\n%#x", n.Event.Seq, n.Event.TID, uint64(n.Event.Addr))
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", n.ID, label)
	}
	color := map[EdgeClass]string{
		ProgramOrder: "black",
		Atomicity:    "red",
		Conflict:     "blue",
	}
	for _, n := range g.Nodes {
		for _, e := range n.In {
			fmt.Fprintf(&b, "  n%d -> n%d [color=%s];\n", e.From, n.ID, color[e.Class])
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Build constructs the persist-order DAG of a trace under a persistency
// model. Parameters follow core.Params (granularities; coalescing is
// intentionally not modeled — see the package comment). The state
// machine mirrors core.Sim but carries dependence *frontiers* (sets of
// node ids) instead of scalar levels, keyed by address interval rather
// than per block (see frontier.go). Each node's In edges come in a
// fixed order: atomicity sources in ascending address order, then
// conflict sources per range (writers before readers), then the
// thread's program-order frontier ascending; a source that orders the
// persist for several reasons appears once, under its first class.
func Build(tr *trace.Trace, p core.Params) (*Graph, error) {
	b, err := newBuilder(p)
	if err != nil {
		return nil, err
	}
	if err := b.run(tr, nil); err != nil {
		return nil, err
	}
	return b.g, nil
}

type nodeSet map[NodeID]struct{}

// gThread is one thread's ordering state.
type gThread struct {
	// active is the program-order frontier: every later persist of the
	// thread (in non-strict models, of its later epochs) depends on it.
	active nodeVec
	// pending holds imported cross-thread dependences not yet bound
	// into active (non-strict models only).
	pending nodeSet
	// epochMax collects the open epoch's persists; ids are assigned in
	// trace order, so appends keep it sorted.
	epochMax []NodeID
	// prune defers dropping active from pending after a persist (see
	// builder.persist).
	prune bool
}

// flushPrune applies a deferred prune: between a persist and the next
// read or write of pending, active does not change, so deleting it
// then removes exactly what deleting it at the persist would have,
// while a run of consecutive persists pays the O(active) sweep once.
func (t *gThread) flushPrune() {
	if !t.prune {
		return
	}
	t.prune = false
	for _, id := range t.active {
		delete(t.pending, id)
	}
}

type builder struct {
	g        *Graph
	p        core.Params
	strict   bool
	barriers bool
	strands  bool
	lbs      bool // load-before-store conflicts
	volc     bool // volatile conflicts
	threads  map[int32]*gThread
	// blocks is the interval-keyed dependence frontier: byte ranges
	// (always aligned to the tracking granularity) mapped to the
	// frontier state future persists of that range depend on. Untouched
	// space has no entry at all.
	blocks     *intervals.Map[memory.Addr, blockState]
	peakRanges int
	// srcMark is the per-persist edge dedup stamp, one slot per node.
	srcMark []NodeID
	// Per-persist scratch and slabs, reused across events.
	edgeBuf  []Edge
	tiles    []blockState
	pendBuf  nodeVec // a barrier's pending ids, sorted
	idSlab   []NodeID
	edgeSlab []Edge
}

func newBuilder(p core.Params) (*builder, error) {
	if p.TrackingGranularity == 0 {
		p.TrackingGranularity = memory.WordSize
	}
	if !memory.IsPowerOfTwo(p.TrackingGranularity) {
		return nil, fmt.Errorf("graph: bad tracking granularity %d", p.TrackingGranularity)
	}
	b := &builder{
		g:       &Graph{},
		p:       p,
		threads: make(map[int32]*gThread),
		blocks:  newFrontier(),
	}
	switch p.Model {
	case core.Strict:
		b.strict, b.lbs, b.volc = true, true, true
	case core.Epoch:
		b.barriers, b.lbs, b.volc = true, true, true
	case core.EpochTSO:
		b.barriers = true
	case core.Strand:
		b.barriers, b.strands, b.lbs, b.volc = true, true, true, true
	default:
		return nil, fmt.Errorf("graph: unknown model %v", p.Model)
	}
	return b, nil
}

// run feeds every event of tr, calling annot (when non-nil) on each
// annotation event just before it is fed, and records the frontier
// stats on the graph.
func (b *builder) run(tr *trace.Trace, annot func(trace.Event)) error {
	// One graph node per persist event, so the node slab can be sized
	// exactly before building (a planes-only SoA walk).
	n := tr.CountPersists()
	b.g.Grow(n)
	b.srcMark = make([]NodeID, n)
	for _, c := range tr.Chunks() {
		for i := 0; i < c.Len(); i++ {
			e := c.Event(i)
			if annot != nil && e.Kind.IsAnnotation() {
				annot(e)
			}
			if err := b.feed(e); err != nil {
				return err
			}
		}
	}
	b.g.Stats = b.statsOf()
	return nil
}

func (b *builder) thread(tid int32) *gThread {
	t, ok := b.threads[tid]
	if !ok {
		t = &gThread{}
		b.threads[tid] = t
	}
	return t
}

// span returns the tracking-granularity-aligned byte range the event's
// access covers: the interval-map key range standing in for the block
// ids a per-block builder enumerates. Event sizes are 1..8 and
// validated, so the range is never empty.
func (b *builder) span(e trace.Event) (lo, hi memory.Addr) {
	g := b.p.TrackingGranularity
	lo = memory.AlignDown(e.Addr, g)
	hi = memory.AlignDown(e.Addr+memory.Addr(e.Size)-1, g) + memory.Addr(g)
	return lo, hi
}

// trackPeak records the frontier's high-water mark after a mutation.
func (b *builder) trackPeak() {
	if n := b.blocks.Len(); n > b.peakRanges {
		b.peakRanges = n
	}
}

func (b *builder) feed(e trace.Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	switch e.Kind {
	case trace.Load:
		if !b.volc && !memory.IsPersistent(e.Addr) {
			return nil
		}
		t := b.thread(e.TID)
		t.flushPrune()
		lo, hi := b.span(e)
		b.blocks.Update(lo, hi, func(_ intervals.Range[memory.Addr], bs blockState, ok bool) (blockState, bool) {
			if !ok {
				bs.lastP = -1
			}
			if b.strict {
				t.active = b.union(t.active, bs.writer)
			} else {
				t.pending = intoSet(t.pending, bs.writer)
			}
			if b.lbs {
				bs.reader = b.union(bs.reader, t.active)
			}
			// An absent range stays absent unless it gained readers:
			// empty frontier state is equivalent to no state.
			return bs, ok || len(bs.reader) > 0
		})
		b.trackPeak()
	case trace.Store, trace.RMW:
		if memory.IsPersistent(e.Addr) {
			b.persist(e)
		} else if b.volc {
			t := b.thread(e.TID)
			t.flushPrune()
			lo, hi := b.span(e)
			b.blocks.Update(lo, hi, func(_ intervals.Range[memory.Addr], bs blockState, ok bool) (blockState, bool) {
				if !ok {
					bs.lastP = -1
				}
				// The store inherits the range's dependences...
				if b.strict {
					t.active = b.union(b.union(t.active, bs.writer), bs.reader)
				} else {
					t.pending = intoSet(intoSet(t.pending, bs.writer), bs.reader)
				}
				// ...and becomes, with them, the range's write frontier.
				bs.writer = b.union(b.union(bs.writer, bs.reader), t.active)
				bs.reader = nil
				return bs, ok || len(bs.writer) > 0
			})
			b.trackPeak()
		}
	case trace.PersistBarrier:
		if b.barriers {
			b.bindEpoch(b.thread(e.TID))
		}
	case trace.NewStrand:
		if b.strands {
			t := b.thread(e.TID)
			t.active = nil
			t.epochMax = t.epochMax[:0]
			clear(t.pending)
			t.prune = false
		}
	case trace.PersistSync:
		b.bindEpoch(b.thread(e.TID))
	case trace.Malloc, trace.Free, trace.BeginWork, trace.EndWork:
		// No ordering significance.
	}
	return nil
}

// bindEpoch closes the thread's epoch: pending dependences and the
// epoch's persists become the program-order frontier.
func (b *builder) bindEpoch(t *gThread) {
	t.flushPrune()
	sp := b.pendBuf[:0]
	for id := range t.pending {
		sp = append(sp, id)
	}
	slices.Sort(sp)
	b.pendBuf = sp
	if len(t.epochMax) > 0 {
		// Every persist of the closing epoch carries edges from the old
		// active set, so the old set is dominated and can be dropped —
		// the frontier pruning that keeps dependence sets bounded.
		t.active = b.merge(sp, t.epochMax)
		t.epochMax = t.epochMax[:0]
	} else if !sp.subsetOf(t.active) {
		t.active = b.merge(t.active, sp)
	}
	clear(t.pending)
}

func (b *builder) persist(e trace.Event) {
	t := b.thread(e.TID)
	id := b.g.AddNode("", e)
	lo, hi := b.span(e)

	// Deduplicated edge insertion: srcMark[from] == id+1 flags a source
	// this persist already has (ids only grow, so older marks never
	// match), which keeps dedup linear in the in-degree — KV epoch
	// persists reach in-degrees over a thousand. Edges stage in edgeBuf
	// and commit as one exact-size slab slice below.
	b.edgeBuf = b.edgeBuf[:0]
	addEdge := func(from NodeID, class EdgeClass) {
		if b.srcMark[from] == id+1 {
			return
		}
		b.srcMark[from] = id + 1
		b.edgeBuf = append(b.edgeBuf, Edge{From: from, Class: class})
	}

	// One edge per distinct source; when a source orders this persist
	// for several reasons, the most specific class wins (atomicity,
	// then conflict, then program order), matching Figure 2's
	// classification. The frontier walk is read-only and visits ranges
	// in ascending address order; tile states are staged in scratch so
	// the conflict phase (which must run after every atomicity edge)
	// doesn't pay a second ordered lookup.
	b.tiles = b.tiles[:0]
	b.blocks.Each(lo, hi, func(_ intervals.Range[memory.Addr], bs blockState) bool {
		// Strong persist atomicity.
		if bs.lastP >= 0 {
			addEdge(bs.lastP, Atomicity)
		}
		b.tiles = append(b.tiles, bs)
		return true
	})
	for _, bs := range b.tiles {
		// Cross-thread (and self) conflict dependences through memory.
		for _, from := range bs.writer {
			addEdge(from, Conflict)
		}
		for _, from := range bs.reader {
			addEdge(from, Conflict)
		}
	}
	tileSources := len(b.edgeBuf)
	// Program-order / barrier dependences, ascending (active is sorted).
	for _, from := range t.active {
		addEdge(from, ProgramOrder)
	}
	n := b.g.Nodes[id]
	n.In = b.allocEdges(len(b.edgeBuf))
	copy(n.In, b.edgeBuf)

	if b.strict {
		// The new persist subsumes everything it depends on.
		t.active = b.single(id)
	} else {
		t.epochMax = append(t.epochMax, id)
		// Everything this persist directly depends on is now dominated
		// by it, so it leaves pending: the range sources now, the
		// active set at the next use of pending (see flushPrune).
		for _, src := range b.edgeBuf[:tileSources] {
			delete(t.pending, src.From)
		}
		t.prune = true
	}
	// The persist has edges from every prior dependence of its whole
	// footprint, so it alone is the new dependence frontier: one
	// uniform range entry, regardless of how many blocks the store
	// spanned or how fragmented the space was before.
	b.blocks.Set(lo, hi, blockState{writer: b.single(id), lastP: id})
	b.trackPeak()
}
