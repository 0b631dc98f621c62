package core

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestDetectEpochRacesBasics(t *testing.T) {
	// T0: persist A in an epoch that also touches a shared volatile
	// flag; T1 reads the flag in an epoch with its own persist: a
	// persist-epoch race.
	var b tb
	b.store(0, paddr(0))
	b.store(0, vaddr(0)) // flag write (same epoch as A's persist)
	b.load(1, vaddr(0))  // racing read
	b.store(1, paddr(1)) // T1's epoch persists too
	rep, err := DetectEpochRaces(&b.tr, RaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 1 || len(rep.Races) != 1 {
		t.Fatalf("races = %+v", rep)
	}
	r := rep.Races[0]
	if r.FirstTID != 0 || r.SecondTID != 1 || r.Addr != vaddr(0) {
		t.Fatalf("race details: %+v", r)
	}
	if !strings.Contains(r.String(), "persist-epoch race") {
		t.Fatal("race string")
	}
}

func TestNoRaceWhenBarriersSeparate(t *testing.T) {
	// The paper's race-free discipline: barriers around the
	// synchronization accesses put them in epochs without persists.
	var b tb
	b.store(0, paddr(0))
	b.barrier(0)
	b.store(0, vaddr(0)) // flag write: its epoch has no persist
	b.load(1, vaddr(0))
	b.barrier(1)
	b.store(1, paddr(1))
	rep, err := DetectEpochRaces(&b.tr, RaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 0 {
		t.Fatalf("expected no races, got %+v", rep)
	}
}

func TestNoRaceWithoutPersists(t *testing.T) {
	var b tb
	b.store(0, vaddr(0))
	b.load(1, vaddr(0))
	b.store(1, vaddr(0))
	rep, err := DetectEpochRaces(&b.tr, RaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 0 {
		t.Fatalf("volatile-only trace raced: %+v", rep)
	}
}

func TestSameThreadIsNotARace(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.store(0, vaddr(0))
	b.load(0, vaddr(0))
	b.store(0, paddr(1))
	rep, err := DetectEpochRaces(&b.tr, RaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 0 {
		t.Fatalf("same-thread accesses raced: %+v", rep)
	}
}

func TestRaceLimit(t *testing.T) {
	var b tb
	for i := 0; i < 40; i++ {
		tid := int32(i % 2)
		b.store(tid, paddr(uint64(10+i)))
		b.rmw(tid, vaddr(0))
	}
	rep, err := DetectEpochRaces(&b.tr, RaceConfig{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) != 5 {
		t.Fatalf("limit not applied: %d", len(rep.Races))
	}
	if rep.Total <= 5 {
		t.Fatalf("total should exceed limit: %d", rep.Total)
	}
}

func TestRaceConfigValidation(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	if _, err := DetectEpochRaces(&b.tr, RaceConfig{TrackingGranularity: 12}); err == nil {
		t.Fatal("bad granularity accepted")
	}
}

func TestRaceRejectsUnmappedAddress(t *testing.T) {
	var b tb
	b.store(0, paddr(0))
	b.tr.Emit(trace.Event{TID: 1, Kind: trace.Store, Addr: 1 << 60, Size: 8, Val: 1})
	if _, err := DetectEpochRaces(&b.tr, RaceConfig{}); err == nil {
		t.Fatal("store to an unmapped address accepted")
	}
}

func TestRaceGranularityFalseSharing(t *testing.T) {
	// Disjoint addresses in one 64-byte block race only under coarse
	// tracking.
	var b tb
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: paddr(0), Size: 8, Val: 1})
	b.tr.Emit(trace.Event{TID: 0, Kind: trace.Store, Addr: paddr(0) + 0, Size: 8, Val: 1})
	// T1 writes 8 bytes beyond T0's word but within its 64B block, and
	// both epochs persist.
	b.tr.Emit(trace.Event{TID: 1, Kind: trace.Store, Addr: paddr(0) + 8, Size: 8, Val: 1})
	fine, err := DetectEpochRaces(&b.tr, RaceConfig{TrackingGranularity: 8})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := DetectEpochRaces(&b.tr, RaceConfig{TrackingGranularity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if fine.Total != 0 {
		t.Fatalf("fine tracking raced: %+v", fine)
	}
	if coarse.Total == 0 {
		t.Fatal("coarse tracking should flag the false-shared race")
	}
}
