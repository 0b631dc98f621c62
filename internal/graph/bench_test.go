package graph

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/trace"
)

// benchTrace builds a persist-heavy multi-threaded trace with barriers
// and cross-thread conflicts — the shape graph.Build sees from real
// workloads.
func benchTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(3))
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tid := int32(i % 4)
		switch rng.Intn(8) {
		case 0:
			tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier})
		case 1:
			// Conflicting block shared across threads.
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: memory.PersistentBase + memory.Addr(rng.Intn(8)*64), Size: 8, Val: 1})
		default:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: memory.PersistentBase + memory.Addr(rng.Intn(1<<10)*64), Size: 8, Val: 1})
		}
	}
	return tr
}

// BenchmarkGraphBuild measures constraint-DAG construction over the
// slab-allocated node and reused scratch storage, per model.
func BenchmarkGraphBuild(b *testing.B) {
	tr := benchTrace(20000)
	for _, m := range []core.Model{core.Strict, core.Epoch} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := Build(tr, core.Params{Model: m})
				if err != nil {
					b.Fatal(err)
				}
				if g.Len() == 0 {
					b.Fatal("empty graph")
				}
			}
			b.ReportMetric(float64(tr.Len()), "events/op")
		})
	}
}
