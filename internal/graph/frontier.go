package graph

import (
	"repro/internal/intervals"
	"repro/internal/memory"
)

// Interval-keyed dependence frontiers.
//
// The builder's per-address state — which nodes last wrote/read each
// tracking-granularity block, and which persist last targeted it — is
// kept in one ordered interval map over byte addresses instead of a
// map[BlockID]*gBlock. A store spanning N blocks updates one range
// entry; a persist stamps its whole footprint with a single uniform
// frontier value that coalesces with nothing-or-everything; and
// untouched address space (the overwhelming majority of a
// gigabyte-scale heap) is never materialized at all. Range boundaries
// are always multiples of the tracking granularity, so block-uniform
// semantics are preserved exactly: an interval can only split at block
// edges.
//
// Frontier node sets, and each thread's program-order frontier, are
// stored as nodeVec — sorted, immutable, copy-on-write slices. Sharing
// is safe because no operation mutates a published vec in place. Every
// vec (singletons — the dominant case: a block just persisted — and
// the unions built at loads, volatile stores and barriers) is carved
// from a chunked append-only slab, so the build allocates per slab
// chunk rather than per event or per barrier.

// nodeVec is a sorted set of node ids. The empty vec is nil. Vecs are
// immutable once stored in a frontier or a thread's active set:
// operations return new (or shared) slices, never append in place.
type nodeVec []NodeID

// subsetOf reports v ⊆ w (one merge-style pass over both).
func (v nodeVec) subsetOf(w nodeVec) bool {
	j := 0
	for _, id := range v {
		for j < len(w) && w[j] < id {
			j++
		}
		if j == len(w) || w[j] != id {
			return false
		}
		j++
	}
	return true
}

// vecEq reports set equality. Shared backing is the fast path: a
// coalescing check between two halves of a split range compares the
// same slice header.
func vecEq(a, b nodeVec) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	if &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// blockState is the per-range dependence frontier: the nodes whose
// persists/reads future persists of this range must order after.
type blockState struct {
	writer nodeVec
	reader nodeVec
	lastP  NodeID // last persist targeting the range; -1 when none
}

// blockEq is the interval map's coalescing predicate: adjacent ranges
// whose frontiers are identical merge into one entry.
func blockEq(a, b blockState) bool {
	return a.lastP == b.lastP && vecEq(a.writer, b.writer) && vecEq(a.reader, b.reader)
}

// idChunk is the id slab's chunk size, in node ids.
const idChunk = 1024

// vec carves an empty vec with capacity n from the chunked,
// append-only id slab. Published vecs are never mutated, so carving
// them from shared chunks is safe; the capacity limit keeps a stray
// append from clobbering the next vec.
func (b *builder) vec(n int) nodeVec {
	if cap(b.idSlab)-len(b.idSlab) < n {
		b.idSlab = make([]NodeID, 0, max(idChunk, n))
	}
	l := len(b.idSlab)
	b.idSlab = b.idSlab[:l+n]
	return nodeVec(b.idSlab[l : l : l+n])
}

// single returns a slab-backed singleton vec.
func (b *builder) single(id NodeID) nodeVec {
	return append(b.vec(1), id)
}

// union returns a ∪ c, sharing an input when it already holds the
// other.
func (b *builder) union(a, c nodeVec) nodeVec {
	if c.subsetOf(a) {
		return a
	}
	if len(a) == 0 {
		return c
	}
	return b.merge(a, c)
}

// merge returns the sorted union of a and c as a fresh slab vec. It is
// the most recent carve, so the slots duplicates left unused go back
// to the slab.
func (b *builder) merge(a, c nodeVec) nodeVec {
	out := b.vec(len(a) + len(c))
	i, j := 0, 0
	for i < len(a) && j < len(c) {
		switch {
		case a[i] < c[j]:
			out = append(out, a[i])
			i++
		case a[i] > c[j]:
			out = append(out, c[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, c[j:]...)
	b.idSlab = b.idSlab[:len(b.idSlab)-(cap(out)-len(out))]
	return out[:len(out):len(out)]
}

// allocEdges carves an exact-size In slice from the chunked edge slab.
// Later AddEdge calls on the node fall back to ordinary append (the
// slice is at capacity), copying out of the slab safely.
func (b *builder) allocEdges(n int) []Edge {
	if n == 0 {
		return nil
	}
	if cap(b.edgeSlab)-len(b.edgeSlab) < n {
		c := 4096
		if n > c {
			c = n
		}
		b.edgeSlab = make([]Edge, 0, c)
	}
	s := b.edgeSlab[len(b.edgeSlab) : len(b.edgeSlab)+n : len(b.edgeSlab)+n]
	b.edgeSlab = b.edgeSlab[:len(b.edgeSlab)+n]
	return s
}

// intoSet inserts every element of v into s in place, creating the map
// on first use.
func intoSet(s nodeSet, v nodeVec) nodeSet {
	if len(v) == 0 {
		return s
	}
	if s == nil {
		s = make(nodeSet, len(v))
	}
	for _, id := range v {
		s[id] = struct{}{}
	}
	return s
}

// BuildStats summarizes the interval frontier's shape after a trace
// build — the stats the CLIs report alongside graph sizes.
type BuildStats struct {
	// FrontierRanges is the number of live interval entries at the end
	// of the build; PeakRanges the high-water mark. Both are bounded by
	// touched blocks, not address-space size.
	FrontierRanges int
	PeakRanges     int
	// Splits and Coalesces count interval boundary cuts and
	// equal-frontier merges over the whole build.
	Splits    uint64
	Coalesces uint64
}

// statsOf snapshots the frontier-shape stats from the interval map.
func (b *builder) statsOf() BuildStats {
	return BuildStats{
		FrontierRanges: b.blocks.Len(),
		PeakRanges:     b.peakRanges,
		Splits:         b.blocks.Splits,
		Coalesces:      b.blocks.Coalesces,
	}
}

// newFrontier constructs the interval map with frontier coalescing.
func newFrontier() *intervals.Map[memory.Addr, blockState] {
	return intervals.NewMap[memory.Addr, blockState](blockEq)
}
