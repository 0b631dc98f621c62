package core

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/trace"
)

// Persist-epoch race detection (§5.2): "We define a persist-epoch race
// as persist epochs from two or more threads that include memory
// accesses that race (to volatile or persistent memory), including
// synchronization races, and at least two epochs include persist
// operations." Races are legal — the paper's "Racing Epochs"
// configuration introduces them deliberately to buy concurrency — but
// they are exactly where epoch persistency's "astonishing" orderings
// live, so software wants a detector for them.
//
// The detector replays the trace through the epoch-persistency state
// machine and flags conflicts that actually leave persists unordered
// (not merely syntactic conflicts, which also occur in properly
// barrier-synchronized code):
//
//   - receiver-side: a conflicting access imports persist-ordering
//     context that the receiving thread has not yet bound (it will bind
//     only at the next barrier), while the receiving epoch itself
//     persists — those persists race with the imported ones;
//   - exporter-side: a store exports while its epoch holds persists that
//     are not yet bound into the thread's exported context (they sit in
//     epochMax until the next barrier) — a conflicting reader's
//     persisting epoch races with them.
//
// It is a detector, not a verifier: contexts summarize dependence
// levels, so exotic chains can in principle over- or under-flag; the
// queue workloads and tests pin the behaviors that matter.

// Race describes one detected persist-epoch race.
type Race struct {
	// First/Second are the trace sequence numbers of the conflicting
	// accesses (First earlier).
	First, Second uint64
	// Addr is the conflicting address.
	Addr memory.Addr
	// FirstTID/SecondTID are the racing threads.
	FirstTID, SecondTID int32
	// FirstEpoch/SecondEpoch are per-thread epoch indexes.
	FirstEpoch, SecondEpoch int
}

// String renders the race for reports.
func (r Race) String() string {
	return fmt.Sprintf("persist-epoch race on %#x: t%d/e%d (#%d) vs t%d/e%d (#%d)",
		uint64(r.Addr), r.FirstTID, r.FirstEpoch, r.First, r.SecondTID, r.SecondEpoch, r.Second)
}

// RaceReport summarizes detection over a trace.
type RaceReport struct {
	// Races holds up to Limit examples.
	Races []Race
	// Total counts all racing conflict pairs (may exceed len(Races)).
	Total int
	// Epochs counts persist epochs examined.
	Epochs int
}

// RaceConfig parameterizes detection.
type RaceConfig struct {
	// TrackingGranularity for conflicts; 0 means 8.
	TrackingGranularity uint64
	// Limit caps stored examples; 0 means 16.
	Limit int
}

type epochKey struct {
	tid   int32
	epoch int
}

// exportMark remembers the last conflicting exporter of a block.
type exportMark struct {
	seq      uint64
	tid      int32
	epoch    int
	residual bool // exporter's epoch held unbound persists at export
}

// DetectEpochRaces scans the trace for persist-epoch races under epoch
// persistency.
func DetectEpochRaces(tr *trace.Trace, cfg RaceConfig) (RaceReport, error) {
	if cfg.TrackingGranularity == 0 {
		cfg.TrackingGranularity = memory.WordSize
	}
	if !memory.IsPowerOfTwo(cfg.TrackingGranularity) {
		return RaceReport{}, fmt.Errorf("core: bad tracking granularity %d", cfg.TrackingGranularity)
	}
	if cfg.Limit <= 0 {
		cfg.Limit = 16
	}

	// Pass 1: which (thread, epoch) contain persists?
	persistsIn := make(map[epochKey]bool)
	epochOf := make(map[int32]int)
	bump := func(e trace.Event) bool {
		if e.Kind == trace.PersistBarrier || e.Kind == trace.PersistSync || e.Kind == trace.NewStrand {
			epochOf[e.TID]++
			return true
		}
		return false
	}
	for e := range tr.All() {
		if bump(e) {
			continue
		}
		if e.IsPersist() {
			persistsIn[epochKey{e.TID, epochOf[e.TID]}] = true
		}
	}
	report := RaceReport{Epochs: len(persistsIn)}

	// Pass 2: replay through the epoch state machine, checking each
	// conflicting access before feeding it to the simulator.
	sim := MustNewSim(Params{Model: Epoch, TrackingGranularity: cfg.TrackingGranularity})
	type blockMarks struct {
		write, read exportMark
		hasW, hasR  bool
	}
	marks := make(map[memory.BlockID]*blockMarks)
	epochOf = make(map[int32]int)
	note := func(m exportMark, e trace.Event) {
		report.Total++
		if len(report.Races) < cfg.Limit {
			report.Races = append(report.Races, Race{
				First: m.seq, Second: e.Seq, Addr: e.Addr,
				FirstTID: m.tid, SecondTID: e.TID,
				FirstEpoch: m.epoch, SecondEpoch: epochOf[e.TID],
			})
		}
	}
	for e := range tr.All() {
		// Validate once, before the block lookups below rely on it.
		if err := e.Validate(); err != nil {
			return RaceReport{}, err
		}
		if bump(e) {
			if err := sim.feed(e); err != nil {
				return RaceReport{}, err
			}
			continue
		}
		if !e.Kind.IsAccess() {
			if err := sim.feed(e); err != nil {
				return RaceReport{}, err
			}
			continue
		}
		t := sim.thread(e.TID)
		me := epochKey{e.TID, epochOf[e.TID]}
		first, last := memory.BlockSpan(e.Addr, int(e.Size), cfg.TrackingGranularity)
		check := func(m exportMark, incoming Ctx, e trace.Event) {
			if m.tid == e.TID {
				return
			}
			// Receiver-side: imported context not yet bound, this epoch
			// persists, and the exporter's epoch persisted.
			receiverRaces := persistsIn[me] && incoming.Lvl > t.active.Lvl && persistsIn[epochKey{m.tid, m.epoch}]
			// Exporter-side: the exporter left unbound persists behind.
			exporterRaces := persistsIn[me] && m.residual && persistsIn[epochKey{m.tid, m.epoch}]
			if receiverRaces || exporterRaces {
				note(m, e)
			}
		}
		for b := first; b <= last; b++ {
			bs := sim.block(b)
			bm := marks[b]
			if bm == nil {
				continue
			}
			// Conflict with the last store (store→load or store→store).
			if bm.hasW {
				check(bm.write, bs.writer, e)
			}
			// Load-before-store conflict.
			if bm.hasR && e.Kind.HasStoreSemantics() {
				check(bm.read, bs.reader, e)
			}
		}
		// Record this access as the blocks' latest potential exporter.
		mark := exportMark{seq: e.Seq, tid: e.TID, epoch: epochOf[e.TID], residual: t.epochMax.Lvl > 0}
		for b := first; b <= last; b++ {
			bm := marks[b]
			if bm == nil {
				bm = &blockMarks{}
				marks[b] = bm
			}
			if e.Kind.HasStoreSemantics() {
				bm.write, bm.hasW = mark, true
				bm.hasR = false
			} else {
				bm.read, bm.hasR = mark, true
			}
		}
		if err := sim.feed(e); err != nil {
			return RaceReport{}, err
		}
	}
	return report, nil
}
