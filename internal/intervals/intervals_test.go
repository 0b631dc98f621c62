package intervals

import (
	"math/rand"
	"testing"
)

// checkInvariants asserts the structural invariants of the sorted
// slab: entries non-empty, strictly ordered, disjoint, and (when
// coalescing is on) no adjacent equal-valued entries sharing an edge.
func checkInvariants(t *testing.T, m *Map[uint64, int]) {
	t.Helper()
	for i, e := range m.ents {
		if e.hi <= e.lo {
			t.Fatalf("entry %d empty: [%d,%d)", i, e.lo, e.hi)
		}
		if i > 0 {
			p := m.ents[i-1]
			if p.hi > e.lo {
				t.Fatalf("entries %d,%d overlap or unsorted: [%d,%d) [%d,%d)", i-1, i, p.lo, p.hi, e.lo, e.hi)
			}
			if m.eq != nil && p.hi == e.lo && m.eq(p.v, e.v) {
				t.Fatalf("uncoalesced adjacent equal entries at %d: [%d,%d)=%d [%d,%d)=%d", i, p.lo, p.hi, p.v, e.lo, e.hi, e.v)
			}
		}
	}
}

// contents flattens the map to per-key values for reference
// comparison.
func contents(m *Map[uint64, int], span uint64) map[uint64]int {
	out := map[uint64]int{}
	m.EachAll(func(r Range[uint64], v int) bool {
		for k := r.Lo; k < r.Hi; k++ {
			if k < span {
				out[k] = v
			}
		}
		return true
	})
	return out
}

func intEq(a, b int) bool { return a == b }

func TestMapBasic(t *testing.T) {
	m := NewMap[uint64, int](intEq)
	m.Set(10, 20, 1)
	m.Set(30, 40, 2)
	if v, ok := m.Get(15); !ok || v != 1 {
		t.Fatalf("Get(15) = %d,%v", v, ok)
	}
	if _, ok := m.Get(25); ok {
		t.Fatal("Get(25) should miss")
	}
	if !m.Overlaps(5, 11) || m.Overlaps(20, 30) || !m.Overlaps(39, 50) {
		t.Fatal("Overlaps wrong")
	}
	// Split: overwrite the middle of [10,20).
	m.Set(13, 16, 7)
	want := []struct {
		lo, hi uint64
		v      int
	}{{10, 13, 1}, {13, 16, 7}, {16, 20, 1}, {30, 40, 2}}
	var got []struct {
		lo, hi uint64
		v      int
	}
	m.EachAll(func(r Range[uint64], v int) bool {
		got = append(got, struct {
			lo, hi uint64
			v      int
		}{r.Lo, r.Hi, v})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("entries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Coalesce: restoring the middle merges all three back.
	m.Set(13, 16, 1)
	if m.Len() != 2 {
		t.Fatalf("after coalescing Len = %d, want 2", m.Len())
	}
	r, v, ok := m.Find(19)
	if !ok || v != 1 || r.Lo != 10 || r.Hi != 20 {
		t.Fatalf("Find(19) = %v %d %v", r, v, ok)
	}
	// Each clips to the query range.
	m.Each(15, 35, func(r Range[uint64], v int) bool {
		if r.Lo < 15 || r.Hi > 35 {
			t.Fatalf("unclipped range %v", r)
		}
		return true
	})
	// Delete splits.
	m.Delete(12, 18)
	if _, ok := m.Get(15); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := m.Get(11); !ok || v != 1 {
		t.Fatal("head survivor missing")
	}
	if v, ok := m.Get(18); !ok || v != 1 {
		t.Fatal("tail survivor missing")
	}
}

func TestMapUpdateGaps(t *testing.T) {
	m := NewMap[uint64, int](intEq)
	m.Set(10, 12, 5)
	m.Set(14, 16, 6)
	var tiles []Range[uint64]
	var present []bool
	m.Update(8, 18, func(r Range[uint64], v int, ok bool) (int, bool) {
		tiles = append(tiles, r)
		present = append(present, ok)
		if !ok {
			return 9, true // materialize gaps
		}
		return v + 1, true
	})
	wantTiles := []Range[uint64]{{8, 10}, {10, 12}, {12, 14}, {14, 16}, {16, 18}}
	wantPresent := []bool{false, true, false, true, false}
	if len(tiles) != len(wantTiles) {
		t.Fatalf("tiles = %v", tiles)
	}
	for i := range wantTiles {
		if tiles[i] != wantTiles[i] || present[i] != wantPresent[i] {
			t.Fatalf("tile %d = %v/%v, want %v/%v", i, tiles[i], present[i], wantTiles[i], wantPresent[i])
		}
	}
	for k, want := range map[uint64]int{8: 9, 10: 6, 12: 9, 14: 7, 16: 9} {
		if v, _ := m.Get(k); v != want {
			t.Fatalf("Get(%d) = %d, want %d", k, v, want)
		}
	}
	// keep=false drops tiles.
	m.Update(0, 100, func(r Range[uint64], v int, ok bool) (int, bool) { return 0, false })
	if m.Len() != 0 {
		t.Fatalf("Len after drop-all = %d", m.Len())
	}
}

// applyRef mirrors one operation onto the naive per-key reference.
type refModel struct {
	vals map[uint64]int
}

func (r *refModel) set(lo, hi uint64, v int) {
	for k := lo; k < hi; k++ {
		r.vals[k] = v
	}
}

func (r *refModel) del(lo, hi uint64) {
	for k := lo; k < hi; k++ {
		delete(r.vals, k)
	}
}

// TestMapRandomVsReference drives random Set/Update/Delete sequences
// against the per-key reference model and checks exact agreement plus
// structural invariants after every operation.
func TestMapRandomVsReference(t *testing.T) {
	const span = 96
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewMap[uint64, int](intEq)
		ref := &refModel{vals: map[uint64]int{}}
		for op := 0; op < 200; op++ {
			lo := uint64(rng.Intn(span))
			hi := lo + uint64(rng.Intn(16))
			switch rng.Intn(4) {
			case 0, 1:
				v := rng.Intn(4)
				m.Set(lo, hi, v)
				ref.set(lo, hi, v)
			case 2:
				m.Delete(lo, hi)
				ref.del(lo, hi)
			case 3:
				d := rng.Intn(3)
				keepGaps := rng.Intn(2) == 0
				m.Update(lo, hi, func(r Range[uint64], v int, ok bool) (int, bool) {
					if !ok {
						if keepGaps {
							return d, true
						}
						return 0, false
					}
					return v + d, true
				})
				for k := lo; k < hi; k++ {
					if v, ok := ref.vals[k]; ok {
						ref.vals[k] = v + d
					} else if keepGaps {
						ref.vals[k] = d
					}
				}
			}
			checkInvariants(t, m)
			got := contents(m, span+32)
			if len(got) != len(ref.vals) {
				t.Fatalf("seed %d op %d: %d keys, want %d", seed, op, len(got), len(ref.vals))
			}
			for k, v := range ref.vals {
				if gv, ok := got[k]; !ok || gv != v {
					t.Fatalf("seed %d op %d key %d: got %d,%v want %d", seed, op, k, gv, ok, v)
				}
			}
			// Point queries agree too (exercises the hint cache).
			for i := 0; i < 8; i++ {
				k := uint64(rng.Intn(span))
				gv, gok := m.Get(k)
				rv, rok := ref.vals[k]
				if gok != rok || (gok && gv != rv) {
					t.Fatalf("seed %d op %d Get(%d) = %d,%v want %d,%v", seed, op, k, gv, gok, rv, rok)
				}
			}
		}
	}
}

func TestSetCovers(t *testing.T) {
	s := NewSet[uint64]()
	s.Insert(10, 20)
	s.Insert(20, 30) // adjacent: must merge
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after adjacent insert", s.Len())
	}
	if !s.Covers(10, 30) || !s.Covers(15, 25) || s.Covers(5, 15) || s.Covers(25, 35) {
		t.Fatal("Covers wrong")
	}
	if !s.Covers(12, 12) {
		t.Fatal("empty range must be trivially covered")
	}
	s.Remove(14, 16)
	if s.Covers(10, 30) || !s.Covers(10, 14) || !s.Covers(16, 30) || s.Contains(15) {
		t.Fatal("Covers/Contains wrong after Remove")
	}
}

func TestSetRandomVsReference(t *testing.T) {
	const span = 80
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet[uint64]()
		ref := map[uint64]bool{}
		for op := 0; op < 150; op++ {
			lo := uint64(rng.Intn(span))
			hi := lo + uint64(rng.Intn(12))
			if rng.Intn(3) > 0 {
				s.Insert(lo, hi)
				for k := lo; k < hi; k++ {
					ref[k] = true
				}
			} else {
				s.Remove(lo, hi)
				for k := lo; k < hi; k++ {
					delete(ref, k)
				}
			}
			qlo := uint64(rng.Intn(span))
			qhi := qlo + uint64(rng.Intn(12))
			wantCov := true
			wantOver := false
			for k := qlo; k < qhi; k++ {
				if ref[k] {
					wantOver = true
				} else {
					wantCov = false
				}
			}
			if qhi <= qlo {
				wantCov = true
			}
			if got := s.Covers(qlo, qhi); got != wantCov {
				t.Fatalf("seed %d op %d Covers(%d,%d) = %v want %v", seed, op, qlo, qhi, got, wantCov)
			}
			if got := s.Overlaps(qlo, qhi); got != wantOver {
				t.Fatalf("seed %d op %d Overlaps(%d,%d) = %v want %v", seed, op, qlo, qhi, got, wantOver)
			}
		}
	}
}

// TestMapAllocSteadyState: once the slab has grown, churn on a
// bounded key space allocates nothing.
func TestMapAllocSteadyState(t *testing.T) {
	m := NewMap[uint64, int](intEq)
	rng := rand.New(rand.NewSource(7))
	mutate := func() {
		lo := uint64(rng.Intn(256))
		hi := lo + 1 + uint64(rng.Intn(8))
		m.Set(lo, hi, rng.Intn(3))
	}
	for i := 0; i < 4096; i++ {
		mutate()
	}
	allocs := testing.AllocsPerRun(200, mutate)
	if allocs > 0.05 {
		t.Fatalf("steady-state Set allocates %.2f allocs/op, want 0", allocs)
	}
}
