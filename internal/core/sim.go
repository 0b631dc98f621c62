package core

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/memory"
	"repro/internal/trace"
)

// Sim is the persist-timing simulator (§7 "Persist Timing Simulation").
// It consumes one SC-ordered trace event at a time — it implements
// trace.Sink, so it can observe an internal/exec run live, and several
// Sims (one per model) can share one execution through a trace.Tee.
//
// Per the paper: "Persist times are tracked per address (both
// persistent and volatile) as well as per thread according to the
// persistency model. ... [E]ach persist occurs after or coalesces with
// the most recent persists observed through (1) each load operand, (2)
// the last store to the address being overwritten, and (3) any persists
// observed by previous instructions on the same thread", with
// load-before-store conflicts additionally tracked to realize SC rather
// than TSO conflict ordering. "Persists' ability to coalesce is
// similarly propagated through memory and thread state."
type Sim struct {
	params Params
	spec   spec

	// threads is dense per-thread state indexed by TID (the execution
	// engine numbers threads from zero).
	threads []threadState
	// blocks holds per-tracking-block state for both address spaces
	// (their block ids are disjoint).
	blocks blockTable[blockState]
	// atoms tracks each atomic block's open (most recent) persist: its
	// level, and the global placement sequence when it opened (for the
	// finite coalescing window). An atomic block has an entry iff it
	// has an open persist.
	atoms blockTable[openPersist]

	// touched is per-persist scratch: the tracking blocks spanned by the
	// access, revisited after placement.
	touched []*blockState

	res Result
	err error
	// lastWorkPath is the critical path at the previous EndWork (for
	// Params.TrackWorkPath).
	lastWorkPath int64
	// probe, when non-nil, observes the persist timeline (telemetry).
	probe Probe
}

// openPersist is an atomic block's most recent NVRAM write: candidates
// coalesce into it while it is still buffered.
type openPersist struct {
	lvl int64
	seq int64 // global placement number when opened
	id  int64 // placed-persist id (provenance)
}

// Alongside every Ctx the simulator keeps a provenance id: the placed
// persist (0-based placement order) that supplies the context's Lvl, or
// -1 when none does. The pair satisfies the invariant that a
// non-negative src always names a persist whose level equals Ctx.Lvl,
// so a probe can reconstruct the exact constraint chain behind the
// scalar critical path — and verifying that reconstruction against
// Result.CriticalPath cross-checks the timing model.

// srcOf returns the provenance of merge(a, b): the source supplying the
// higher level, preferring a known source on ties.
func srcOf(a Ctx, aSrc int64, b Ctx, bSrc int64) int64 {
	if b.Lvl > a.Lvl || (b.Lvl == a.Lvl && aSrc < 0) {
		return bSrc
	}
	return aSrc
}

// threadState is the per-thread dependence state.
type threadState struct {
	// active holds dependences that bind new persists immediately:
	// under strict persistency everything lands here; under epoch and
	// strand persistency it advances only at persist barriers.
	active Ctx
	// pending holds conflict-observed dependences within the current
	// epoch; they bind persists only after the next barrier (§5.2:
	// same-epoch persists after a conflicting load are *not* ordered —
	// the "astonishing" semantics racing epochs exploit).
	pending Ctx
	// epochMax accumulates levels of persists issued in the current
	// epoch; program order across a barrier orders them before the next
	// epoch's persists.
	epochMax Ctx
	// Provenance ids for the three contexts (see srcOf).
	activeSrc, pendingSrc, epochMaxSrc int64
	// epoch and strand count the thread's annotation marks (for probes;
	// maintained regardless of model so timelines show the annotation
	// structure even where the model ignores it).
	epoch, strand int64
}

// blockTable maps block ids to per-block state. Its storage grows with
// the blocks a run touches, not with the address span they lie in: a
// trace touching a few words at the top of the 1 TiB persistent space
// costs a few index nodes, not a span-sized array.
//
// The index is a radix tree over the block id, built of fixed-size
// uint32 nodes: node 0 is the root, an interior entry holds a child's
// node number (0 = absent), and a leaf entry holds an entry slot. Nodes
// and entries live in chunkLists, so neither ever moves and an entry
// pointer stays valid until reset.
//
// A slot is live iff it is below the run's entry count and its entry
// records the same block id, so reset is O(1): it zeroes the count and
// keeps the index and the storage for the next run.
type blockTable[E any] struct {
	nodes   chunkList[[nodeSize]uint32]
	entries chunkList[tableEntry[E]]
	nNodes  uint32 // nodes below the root
	n       uint32 // entries handed out this run
	// leafCache is a direct-mapped cache of recent leaf lookups, indexed
	// by the id's bits above the leaf; page holds those bits plus one
	// (0 = empty).
	leafCache [leafCacheSize]struct {
		page uint64
		leaf *[nodeSize]uint32
	}
}

// tableEntry is one block's state and the id that owns it.
type tableEntry[E any] struct {
	id  memory.BlockID
	val E
}

const (
	nodeBits = 10
	nodeSize = 1 << nodeBits
	// levels of nodes, leaves included, cover every block id of the
	// mapped spaces at the finest granularity (ids below 2^38 at 8 bytes).
	levels = 4
	// leafCacheSize lets an access stream that alternates between a few
	// pages (a volatile lock word and a persistent buffer) skip the walk.
	leafCacheSize = 4
	// First chunk sizes (log2): 16 nodes and 1024 entries.
	nodeChunkBits  = 4
	entryChunkBits = 10
)

// reset invalidates every entry in O(1).
func (t *blockTable[E]) reset() { t.n = 0 }

// get returns block b's entry, and whether it was created by this call
// (its value is then the zero E, or stale from an earlier run, for the
// caller to initialize).
func (t *blockTable[E]) get(b memory.BlockID) (val *E, fresh bool) {
	k := uint64(b)
	page := k>>nodeBits + 1
	lc := &t.leafCache[page%leafCacheSize]
	if lc.page != page {
		lc.leaf, lc.page = t.leaf(k), page
	}
	ix := &lc.leaf[k%nodeSize]
	if slot := *ix; slot < t.n {
		if e := t.entries.at(slot, entryChunkBits); e.id == b {
			return &e.val, false
		}
	}
	*ix = t.n
	e := t.entries.at(t.n, entryChunkBits)
	t.n++
	e.id = b
	return &e.val, true
}

// leaf returns the leaf covering block id k, creating the path to it.
func (t *blockTable[E]) leaf(k uint64) *[nodeSize]uint32 {
	if k>>(levels*nodeBits) != 0 {
		panic(fmt.Sprintf("core: block id %#x outside the mapped address spaces", k))
	}
	node := t.nodes.at(0, nodeChunkBits)
	for shift := (levels - 1) * nodeBits; shift > 0; shift -= nodeBits {
		c := &node[k>>shift%nodeSize]
		if *c == 0 {
			t.nNodes++
			*c = t.nNodes
		}
		node = t.nodes.at(*c, nodeChunkBits)
	}
	return node
}

// chunkList is append-only storage whose elements never move: chunk c
// holds 1<<(first+c) elements, so a list of n elements takes
// O(log n) allocations. Every call on one list must pass the same
// first.
type chunkList[T any] struct {
	chunks [33][]T // enough for every uint32 index
}

// at returns element i, allocating its chunk on first use.
func (c *chunkList[T]) at(i uint32, first int) *T {
	s := uint64(i) + 1<<first
	hb := bits.Len64(s) - 1
	ch := &c.chunks[hb-first]
	if *ch == nil {
		*ch = make([]T, 1<<hb)
	}
	return &(*ch)[s-1<<hb]
}

// blockState is the per-tracking-block dependence state.
type blockState struct {
	// writer is the persist context made visible by stores to this
	// block: a conflicting later access is ordered after these persists.
	writer Ctx
	// reader accumulates contexts of threads that loaded this block
	// since the last store; a subsequent store conflicts with those
	// loads (load-before-store, the SC-vs-TSO distinction).
	reader Ctx
	// lastP is the most recent persist to this tracking block (level +
	// atomic block): strong persist atomicity orders same-block persists
	// under every model, and coarse tracking makes this false sharing.
	lastP Ctx
	// Provenance ids for the three contexts (see srcOf).
	writerSrc, readerSrc, lastPSrc int64
}

// NewSim constructs a simulator; Params are validated here.
func NewSim(p Params) (*Sim, error) {
	s := &Sim{}
	if err := s.Reset(p); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset reinitializes the simulator for a fresh run under p, retaining
// the allocated state tables so one Sim can replay many traces without
// churning the allocator. Invalidation is O(1) (see blockTable). Any
// attached probe is detached.
func (s *Sim) Reset(p Params) error {
	if err := p.normalize(); err != nil {
		return err
	}
	s.params = p
	s.spec = p.Model.spec()
	s.threads = s.threads[:0]
	s.blocks.reset()
	s.atoms.reset()
	s.touched = s.touched[:0]
	s.res = Result{Model: p.Model, Params: p}
	s.err = nil
	s.lastWorkPath = 0
	s.probe = nil
	return nil
}

// MustNewSim is NewSim for static parameters.
func MustNewSim(p Params) *Sim {
	s, err := NewSim(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Err returns the first event-processing error, if any.
func (s *Sim) Err() error { return s.err }

// Result finalizes and returns the simulation outcome.
func (s *Sim) Result() Result { return s.res }

// Emit implements trace.Sink.
func (s *Sim) Emit(e trace.Event) {
	if s.err != nil {
		return
	}
	if err := s.Feed(e); err != nil {
		s.err = err
	}
}

// thread returns thread tid's state, growing the dense table on first
// sight. The returned pointer is valid until the next thread call,
// which may grow the backing slice.
func (s *Sim) thread(tid int32) *threadState {
	for int(tid) >= len(s.threads) {
		s.threads = append(s.threads, threadState{
			active: zeroCtx, pending: zeroCtx, epochMax: zeroCtx,
			activeSrc: -1, pendingSrc: -1, epochMaxSrc: -1,
		})
	}
	return &s.threads[tid]
}

// block returns the tracking-block state for id b, which must be at the
// configured tracking granularity. The returned pointer is valid until
// the next Reset.
func (s *Sim) block(b memory.BlockID) *blockState {
	bs, fresh := s.blocks.get(b)
	if fresh {
		*bs = blockState{
			writer: zeroCtx, reader: zeroCtx, lastP: zeroCtx,
			writerSrc: -1, readerSrc: -1, lastPSrc: -1,
		}
	}
	return bs
}

// Feed validates and processes one event in SC order.
func (s *Sim) Feed(e trace.Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	return s.feed(e)
}

// feed processes one already-validated event. MultiSim validates each
// event once and fans it out here; the block tables rely on Validate's
// range checks, so unvalidated events must never reach feed.
func (s *Sim) feed(e trace.Event) error {
	s.res.Events++
	switch e.Kind {
	case trace.Load:
		s.load(e)
	case trace.Store, trace.RMW:
		// An RMW has load semantics too, but its store semantics absorb
		// a superset of what the load would (reader and writer contexts
		// both), so one path covers it.
		if memory.IsPersistent(e.Addr) {
			s.persist(e)
		} else {
			s.volatileStore(e)
		}
	case trace.PersistBarrier:
		t := s.thread(e.TID)
		if s.spec.barriers {
			s.barrier(t)
		}
		t.epoch++
		if s.probe != nil {
			s.probe.EpochMark(e.TID, s.res.Events-1, t.epoch, false)
		}
	case trace.NewStrand:
		t := s.thread(e.TID)
		if s.spec.strands {
			t.active, t.pending, t.epochMax = zeroCtx, zeroCtx, zeroCtx
			t.activeSrc, t.pendingSrc, t.epochMaxSrc = -1, -1, -1
		}
		t.strand++
		if s.probe != nil {
			s.probe.StrandMark(e.TID, s.res.Events-1, t.strand)
		}
	case trace.PersistSync:
		// Buffered strict persistency's sync (§4.1): execution waits for
		// all of the thread's outstanding persists, so everything the
		// thread has observed binds immediately under every model.
		t := s.thread(e.TID)
		s.barrier(t)
		s.res.Syncs++
		t.epoch++
		if s.probe != nil {
			s.probe.EpochMark(e.TID, s.res.Events-1, t.epoch, true)
		}
	case trace.EndWork:
		s.res.WorkItems++
		if s.params.TrackWorkPath {
			s.res.WorkPathDeltas = append(s.res.WorkPathDeltas, s.res.CriticalPath-s.lastWorkPath)
			s.lastWorkPath = s.res.CriticalPath
		}
		if s.probe != nil {
			s.probe.WorkMark(e.TID, s.res.Events-1, e.Val, false)
		}
	case trace.BeginWork:
		if s.probe != nil {
			s.probe.WorkMark(e.TID, s.res.Events-1, e.Val, true)
		}
	case trace.Malloc, trace.Free:
		// No ordering significance. (Reusing freed persistent memory
		// legitimately inherits the old block's persist state: addresses
		// are physical.)
	default:
		return fmt.Errorf("core: unhandled event kind %v", e.Kind)
	}
	return nil
}

// barrier folds the epoch state into the active dependence set.
func (s *Sim) barrier(t *threadState) {
	src := srcOf(t.active, t.activeSrc, t.pending, t.pendingSrc)
	ap := merge(t.active, t.pending)
	t.activeSrc = srcOf(ap, src, t.epochMax, t.epochMaxSrc)
	t.active = merge(ap, t.epochMax)
	t.pending, t.pendingSrc = zeroCtx, -1
	t.epochMax, t.epochMaxSrc = zeroCtx, -1
}

// trackingBlocks iterates the tracking blocks spanned by an access.
// Block pointers stay valid until Reset, so fn may retain them across
// the iteration.
func (s *Sim) trackingBlocks(e trace.Event, fn func(*blockState)) {
	first, last := memory.BlockSpan(e.Addr, int(e.Size), s.params.TrackingGranularity)
	for b := first; b <= last; b++ {
		fn(s.block(b))
	}
}

// load propagates the writer context of each touched block into the
// thread (immediately under strict, pending-until-barrier otherwise)
// and records the reader context for later load-before-store conflicts.
func (s *Sim) load(e trace.Event) {
	if !s.spec.volatileConflicts && !memory.IsPersistent(e.Addr) {
		return
	}
	t := s.thread(e.TID)
	s.trackingBlocks(e, func(bs *blockState) {
		if s.spec.immediate {
			t.activeSrc = srcOf(t.active, t.activeSrc, bs.writer, bs.writerSrc)
			t.active = merge(t.active, bs.writer)
		} else {
			t.pendingSrc = srcOf(t.pending, t.pendingSrc, bs.writer, bs.writerSrc)
			t.pending = merge(t.pending, bs.writer)
		}
		if s.spec.loadBeforeStore {
			bs.readerSrc = srcOf(bs.reader, bs.readerSrc, t.active, t.activeSrc)
			bs.reader = merge(bs.reader, t.active)
		}
	})
}

// volatileStore handles stores and RMWs to the volatile space: they
// create no persist but conflict with earlier accesses, propagating
// persist ordering through memory (this is how lock-protected persists
// become ordered across threads under strict and non-racing epoch).
func (s *Sim) volatileStore(e trace.Event) {
	if !s.spec.volatileConflicts {
		return
	}
	t := s.thread(e.TID)
	s.trackingBlocks(e, func(bs *blockState) {
		inheritSrc := srcOf(bs.writer, bs.writerSrc, bs.reader, bs.readerSrc)
		inherit := merge(bs.writer, bs.reader)
		if s.spec.immediate {
			t.activeSrc = srcOf(t.active, t.activeSrc, inherit, inheritSrc)
			t.active = merge(t.active, inherit)
		} else {
			t.pendingSrc = srcOf(t.pending, t.pendingSrc, inherit, inheritSrc)
			t.pending = merge(t.pending, inherit)
		}
		// Export: what later conflicting accesses are ordered after.
		// Prior writer/reader contexts stay folded in for transitivity.
		bs.writerSrc = srcOf(inherit, inheritSrc, t.active, t.activeSrc)
		bs.writer = merge(inherit, t.active)
		bs.reader, bs.readerSrc = zeroCtx, -1
	})
}

// persist handles stores and RMWs to the persistent space. Each atomic
// block fragment of the access is one persist operation; it coalesces
// with the open persist of its atomic block when every dependence not
// already part of that open persist is strictly older, else it is
// placed at a new level.
func (s *Sim) persist(e trace.Event) {
	t := s.thread(e.TID)

	// Gather the dependence context across all spanned tracking blocks,
	// and remember them for the post-placement update. Alongside the
	// scalar merge, track which persist supplies the maximum level and
	// through which channel it arrived — the channel is the constraint's
	// class (program order from the thread, conflict from writer/reader
	// contexts, atomicity from the block's last persist).
	dep := t.active
	depSrc, depClass := t.activeSrc, DepProgramOrder
	absorb := func(c Ctx, src int64, class DepClass) {
		if c.Lvl > dep.Lvl || (c.Lvl == dep.Lvl && depSrc < 0 && src >= 0) {
			depSrc, depClass = src, class
		}
		dep = merge(dep, c)
	}
	s.touched = s.touched[:0]
	s.trackingBlocks(e, func(bs *blockState) {
		absorb(bs.writer, bs.writerSrc, DepConflict)
		absorb(bs.reader, bs.readerSrc, DepConflict)
		absorb(bs.lastP, bs.lastPSrc, DepAtomicity)
		s.touched = append(s.touched, bs)
	})
	if depSrc < 0 {
		depClass = DepNone
	}

	// Place (or coalesce) one persist per spanned atomic block.
	firstA, lastA := memory.BlockSpan(e.Addr, int(e.Size), s.params.AtomicGranularity)
	placedCtx := zeroCtx
	placedSrc := int64(-1)
	for ab := firstA; ab <= lastA; ab++ {
		s.res.Persists++
		ae, fresh := s.atoms.get(ab)
		open, isOpen := *ae, !fresh
		stillBuffered := isOpen &&
			(s.params.CoalesceWindow == 0 || s.res.Placed-open.seq <= s.params.CoalesceWindow)
		var lvl, id int64
		coalesced := false
		if !s.params.NoCoalescing && stillBuffered && dep.Excluding(ab) < open.lvl {
			// Coalesce: the write joins the open persist of this atomic
			// block; every other dependence persists strictly earlier.
			lvl, id = open.lvl, open.id
			coalesced = true
			s.res.Coalesced++
		} else {
			lvl = dep.Lvl + 1
			pSrc, pClass := depSrc, depClass
			if isOpen && open.lvl >= lvl {
				// Same-block serialization: the new NVRAM write is ordered
				// behind the block's open persist (strong persist
				// atomicity), which here is the binding constraint.
				lvl = open.lvl + 1
				pSrc, pClass = open.id, DepAtomicity
			}
			s.res.Placed++
			id = s.res.Placed - 1
			*ae = openPersist{lvl: lvl, seq: s.res.Placed, id: id}
			if lvl > s.res.CriticalPath {
				s.res.CriticalPath = lvl
			}
			if s.probe != nil {
				s.probe.PersistPlaced(PersistRecord{
					EventIndex: s.res.Events - 1,
					TID:        e.TID, Addr: e.Addr, Size: e.Size, Block: ab,
					ID: id, Level: lvl,
					DepID: pSrc, DepClass: pClass, DepLevel: lvl - 1,
					Epoch: t.epoch, Strand: t.strand,
				})
			}
		}
		if coalesced && s.probe != nil {
			s.probe.PersistPlaced(PersistRecord{
				EventIndex: s.res.Events - 1,
				TID:        e.TID, Addr: e.Addr, Size: e.Size, Block: ab,
				ID: id, Level: lvl, Coalesced: true,
				DepID: -1, DepClass: DepNone, DepLevel: dep.Lvl,
				Epoch: t.epoch, Strand: t.strand,
			})
		}
		pc := persistCtx(lvl, ab)
		placedSrc = srcOf(placedCtx, placedSrc, pc, id)
		placedCtx = merge(placedCtx, pc)
	}

	// The thread observes its own persist: immediately under strict
	// (program order orders subsequent persists), at the next barrier
	// under epoch/strand.
	if s.spec.immediate {
		t.activeSrc = srcOf(t.active, t.activeSrc, placedCtx, placedSrc)
		t.active = merge(t.active, placedCtx)
	} else {
		t.epochMaxSrc = srcOf(t.epochMax, t.epochMaxSrc, placedCtx, placedSrc)
		t.epochMax = merge(t.epochMax, placedCtx)
		t.pendingSrc = srcOf(t.pending, t.pendingSrc, dep, depSrc)
		t.pending = merge(t.pending, dep)
	}

	// Update the tracking blocks. The placed persist was ordered after
	// every dependence the block carried, so it alone is the block's
	// new dependence frontier — keeping the context single-sourced,
	// which maximizes later same-block coalescing (the head-pointer
	// coalescing the paper notes in §6).
	for _, bs := range s.touched {
		bs.writer, bs.writerSrc = placedCtx, placedSrc
		bs.reader, bs.readerSrc = zeroCtx, -1
		bs.lastP, bs.lastPSrc = placedCtx, placedSrc
	}
}

// simPool recycles simulators across Simulate calls: sweeps replay the
// same trace under thousands of parameter combinations, and a pooled
// simulator keeps its state tables from run to run.
var simPool = sync.Pool{New: func() any { return &Sim{} }}

// AcquireSim returns a pooled simulator reset to p — the streaming
// equivalent of Simulate for callers that feed events live (via Emit or
// as a trace.Sink) rather than replaying a stored trace. Pass the
// simulator to ReleaseSim when its Result has been taken; the caller
// must not retain it afterwards.
func AcquireSim(p Params) (*Sim, error) {
	s := simPool.Get().(*Sim)
	if err := s.Reset(p); err != nil {
		simPool.Put(s)
		return nil, err
	}
	return s, nil
}

// ReleaseSim recycles a simulator obtained from AcquireSim.
func ReleaseSim(s *Sim) {
	if s != nil {
		simPool.Put(s)
	}
}

// Simulate runs a complete in-memory trace through a pooled simulator.
func Simulate(tr *trace.Trace, p Params) (Result, error) {
	s := simPool.Get().(*Sim)
	defer simPool.Put(s)
	if err := s.Reset(p); err != nil {
		return Result{}, err
	}
	for _, c := range tr.Chunks() {
		for i := 0; i < c.Len(); i++ {
			if err := s.Feed(c.Event(i)); err != nil {
				return Result{}, err
			}
		}
	}
	return s.Result(), nil
}

// SimulateAll runs one trace through every model in Models with shared
// granularity parameters, returning results in Models order. The trace
// is walked once: each event is decoded and validated a single time and
// fanned out to all models' simulators (see MultiSim), rather than
// replaying the trace once per model.
func SimulateAll(tr *trace.Trace, base Params) ([]Result, error) {
	ms, err := NewMultiSim(base, Models...)
	if err != nil {
		return nil, err
	}
	for _, c := range tr.Chunks() {
		for i := 0; i < c.Len(); i++ {
			if err := ms.Feed(c.Event(i)); err != nil {
				return nil, err
			}
		}
	}
	return ms.Results(), nil
}
