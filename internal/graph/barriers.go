package graph

import (
	"slices"

	"repro/internal/core"
	"repro/internal/trace"
)

// BarrierInfo describes the effect one persistency annotation event had
// on the constraint graph under the model it was built for. It is the
// input to the persistency checker's redundant-barrier lint: an
// annotation that binds nothing changes no dependence frontier, so
// removing it leaves the constraint graph's edge set identical — the
// barrier is pure overhead under that model.
type BarrierInfo struct {
	// Seq is the annotation event's position in the SC order.
	Seq uint64
	// TID is the issuing thread.
	TID int32
	// Kind is the annotation kind (PersistBarrier, NewStrand,
	// PersistSync).
	Kind trace.Kind
	// Epoch is the thread's epoch index after this annotation (counted
	// over all annotation kinds, matching core.PersistRecord.Epoch).
	Epoch int64
	// Redundant reports that the annotation changed no builder state:
	// for a barrier, the thread had no unbound persists and no imported
	// dependences outside its active frontier; for NewStrand, the thread
	// had no dependence state to clear. Models that ignore the
	// annotation kind entirely (e.g. barriers under strict persistency)
	// make it trivially redundant.
	Redundant bool
}

// BuildWithBarriers is Build plus a per-annotation effect report, in
// trace order. The graph, Stats included, is identical to Build's: both
// run the same event loop, this one with a collector that inspects the
// builder state before each annotation is fed.
func BuildWithBarriers(tr *trace.Trace, p core.Params) (*Graph, []BarrierInfo, error) {
	b, err := newBuilder(p)
	if err != nil {
		return nil, nil, err
	}
	var infos []BarrierInfo
	epochs := make(map[int32]int64)
	err = b.run(tr, func(e trace.Event) {
		epochs[e.TID]++
		infos = append(infos, BarrierInfo{
			Seq:       e.Seq,
			TID:       e.TID,
			Kind:      e.Kind,
			Epoch:     epochs[e.TID],
			Redundant: b.annotationRedundant(e),
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return b.g, infos, nil
}

// annotationRedundant reports whether feeding e would change no builder
// state. It must be called immediately before feed(e).
//
// A deferred prune (gThread.prune) never changes the answer: it is only
// set by a persist, which also makes epochMax non-empty until the next
// bind or strand reset, and a non-empty epochMax already makes every
// annotation effective.
func (b *builder) annotationRedundant(e trace.Event) bool {
	t := b.threads[e.TID]
	switch e.Kind {
	case trace.PersistBarrier:
		if !b.barriers {
			// The model ignores barriers (strict persistency).
			return true
		}
	case trace.NewStrand:
		if !b.strands {
			return true
		}
		// Clearing is a no-op only when there is nothing to clear.
		return t == nil || (len(t.active) == 0 && len(t.pending) == 0 && len(t.epochMax) == 0)
	case trace.PersistSync:
		// PersistSync binds under every model, like a barrier.
	}
	// A barrier/sync binds pending and epochMax into active. It is a
	// no-op iff the thread holds no unbound persists (epochMax empty)
	// and every imported dependence is already active. (When epochMax is
	// non-empty the frontier is rebuilt, which future persists observe.)
	if t == nil || len(t.epochMax) > 0 {
		return t == nil
	}
	for id := range t.pending {
		if _, ok := slices.BinarySearch(t.active, id); !ok {
			return false
		}
	}
	return true
}
