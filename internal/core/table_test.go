package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestFarAddressesStaySmall feeds accesses at both ends of the 1 TiB
// persistent space and at the top of the volatile space. The state
// tables grow with the blocks touched, so this costs a few index nodes;
// a table sized by address span would need terabytes.
func TestFarAddressesStaySmall(t *testing.T) {
	pLast := memory.PersistentBase + memory.Addr(memory.PersistentSize-memory.WordSize)
	vLast := memory.VolatileBase + memory.Addr(memory.VolatileSize-memory.WordSize)
	tr := &trace.Trace{}
	emit := func(tid int32, k trace.Kind, a memory.Addr) {
		tr.Emit(trace.Event{TID: tid, Kind: k, Addr: a, Size: memory.WordSize, Val: 1})
	}
	for i := 0; i < 4; i++ {
		tid := int32(i % 2)
		emit(tid, trace.Store, memory.PersistentBase)
		emit(tid, trace.Load, vLast)
		emit(tid, trace.Store, vLast-memory.WordSize)
		emit(tid, trace.Store, pLast)
		emit(tid, trace.Load, pLast)
		tr.Emit(trace.Event{TID: tid, Kind: trace.PersistBarrier})
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rs, err := core.SimulateAll(tr, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DetectEpochRaces(tr, core.RaceConfig{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	for i, r := range rs {
		if r.Persists != 8 || r.CriticalPath == 0 {
			t.Errorf("%v: %d persists, critical path %d; want 8 persists on a nonzero path",
				core.Models[i], r.Persists, r.CriticalPath)
		}
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<20 {
		t.Errorf("far-address trace allocated %d MiB, want < 64 MiB", got>>20)
	}
}

// timeline records every probe callback.
type timeline struct {
	persists []core.PersistRecord
	marks    []string
}

func (l *timeline) PersistPlaced(r core.PersistRecord) { l.persists = append(l.persists, r) }
func (l *timeline) EpochMark(tid int32, ev, epoch int64, sync bool) {
	l.marks = append(l.marks, fmt.Sprint("epoch ", tid, ev, epoch, sync))
}
func (l *timeline) StrandMark(tid int32, ev, strand int64) {
	l.marks = append(l.marks, fmt.Sprint("strand ", tid, ev, strand))
}
func (l *timeline) WorkMark(tid int32, ev int64, id uint64, begin bool) {
	l.marks = append(l.marks, fmt.Sprint("work ", tid, ev, id, begin))
}

// replay feeds tr through s with a fresh timeline attached.
func replay(t *testing.T, s *core.Sim, tr *trace.Trace) (core.Result, *timeline) {
	t.Helper()
	l := &timeline{}
	s.SetProbe(l)
	for e := range tr.All() {
		if err := s.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	return s.Result(), l
}

// TestResetReuseMatchesFresh replays a sparse KV trace, a dense queue
// trace and the KV trace again through one pooled simulator. Each run
// must match a fresh simulator's result and persist timeline exactly:
// entries left behind by an earlier run must never leak into a later
// one.
func TestResetReuseMatchesFresh(t *testing.T) {
	kvRun, err := workload.BuildKV(workload.KVOptions{
		Shards: 8, Keys: 4096, Threads: 4, Ops: 512, ReadFrac: 0.5, ZipfS: 1.1,
		Policy: journal.PolicyEpoch, Seed: 3, PolicyStr: "epoch",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	queueTrace, err := bench.Trace(bench.Workload{
		Design: queue.CWL, Policy: queue.PolicyEpoch, Threads: 4, Inserts: 400, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := []*trace.Trace{kvRun.Trace, queueTrace, kvRun.Trace}
	names := []string{"kv", "queue", "kv again"}

	for _, m := range core.Models {
		p := core.Params{Model: m, TrackWorkPath: true}
		pooled, err := core.AcquireSim(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range traces {
			if i > 0 {
				if err := pooled.Reset(p); err != nil {
					t.Fatal(err)
				}
			}
			got, gotLine := replay(t, pooled, tr)
			want, wantLine := replay(t, core.MustNewSim(p), tr)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v %s: reused simulator's result differs from a fresh one\nreused: %+v\nfresh:  %+v",
					m, names[i], got, want)
			}
			if !reflect.DeepEqual(gotLine, wantLine) {
				t.Errorf("%v %s: reused simulator's persist timeline differs from a fresh one", m, names[i])
			}
		}
		core.ReleaseSim(pooled)
	}
}
