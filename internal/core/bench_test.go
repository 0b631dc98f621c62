package core

import (
	"math/rand"
	"testing"

	"repro/internal/memory"
	"repro/internal/trace"
)

// synthTrace builds a synthetic mixed trace for simulator throughput
// measurement.
func synthTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(1))
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tid := int32(i % 4)
		switch rng.Intn(10) {
		case 0:
			tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier})
		case 1:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Load, Addr: memory.PersistentBase + memory.Addr(rng.Intn(1<<12)*8), Size: 8})
		case 2, 3:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: memory.VolatileBase + memory.Addr(rng.Intn(64)*8), Size: 8, Val: 1})
		default:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: memory.PersistentBase + memory.Addr(rng.Intn(1<<12)*8), Size: 8, Val: 1})
		}
	}
	return tr
}

// BenchmarkSimFeed measures event-processing throughput per model.
func BenchmarkSimFeed(b *testing.B) {
	tr := synthTrace(10000)
	for _, m := range Models {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(tr, Params{Model: m}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len()), "events/run")
		})
	}
}

// BenchmarkSimulateAll measures the single-pass multi-model walk: one
// trace decode feeding every model's simulator (the MultiSim path).
func BenchmarkSimulateAll(b *testing.B) {
	tr := synthTrace(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateAll(tr, Params{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*len(Models)), "simevents/run")
}

// sparseTrace builds a synthetic trace shaped like the sharded KV
// store's: accesses spread over about 7% of the words of a 4 MiB
// persistent span, mostly loads, with volatile lock traffic and
// barriers.
func sparseTrace(n int) *trace.Trace {
	const spanWords = 4 << 20 / memory.WordSize
	rng := rand.New(rand.NewSource(1))
	words := rng.Perm(spanWords)[:spanWords*7/100]
	word := func() memory.Addr {
		return memory.PersistentBase + memory.Addr(words[rng.Intn(len(words))]*memory.WordSize)
	}
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tid := int32(i % 8)
		switch rng.Intn(10) {
		case 0:
			tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier})
		case 1:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: memory.VolatileBase + memory.Addr(rng.Intn(64)*64), Size: 8, Val: 1})
		case 2, 3, 4:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Store, Addr: word(), Size: 8, Val: 1})
		default:
			tr.Emit(trace.Event{TID: tid, Kind: trace.Load, Addr: word(), Size: 8})
		}
	}
	return tr
}

// BenchmarkSimulateAllSparse is BenchmarkSimulateAll over a sparse,
// KV-shaped trace: the simulator's state must scale with the blocks
// touched, not with the span they lie in.
func BenchmarkSimulateAllSparse(b *testing.B) {
	tr := sparseTrace(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateAll(tr, Params{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()*len(Models)), "simevents/run")
}

// TestSimulateAllocsPerEvent guards the allocation-lean replay path:
// once the pooled simulator is warm, replaying a trace must not
// allocate per event — only a bounded per-run residue (result bookkeeping,
// pool slot churn) is allowed, for both the strict and epoch hot paths.
func TestSimulateAllocsPerEvent(t *testing.T) {
	tr := synthTrace(10000)
	for _, m := range []Model{Strict, Epoch} {
		// Warm the sim pool and its block tables.
		if _, err := Simulate(tr, Params{Model: m}); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Simulate(tr, Params{Model: m}); err != nil {
				t.Fatal(err)
			}
		})
		perEvent := allocs / float64(tr.Len())
		if perEvent > 0.01 {
			t.Errorf("%v: %.1f allocs per 10k-event replay (%.4f/event), want ~0/event",
				m, allocs, perEvent)
		}
	}
}

// BenchmarkCtxMerge measures the dependence-context lattice.
func BenchmarkCtxMerge(b *testing.B) {
	a := Ctx{Lvl: 10, Src: 3, Lvl2: 7}
	c := Ctx{Lvl: 9, Src: 5, Lvl2: 8}
	for i := 0; i < b.N; i++ {
		a = merge(a, c)
	}
	_ = a
}
