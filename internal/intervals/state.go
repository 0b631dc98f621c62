package intervals

// Set is an ordered set of half-open key ranges: a Map with unit
// values and adjacent-range coalescing always on.
type Set[K Key] struct {
	m Map[K, struct{}]
}

// NewSet returns an empty interval set.
func NewSet[K Key]() *Set[K] {
	return &Set[K]{m: Map[K, struct{}]{eq: func(struct{}, struct{}) bool { return true }}}
}

// Insert adds [lo, hi) to the set, merging with adjacent or
// overlapping members.
func (s *Set[K]) Insert(lo, hi K) { s.m.Set(lo, hi, struct{}{}) }

// Remove deletes [lo, hi) from the set, splitting boundary members.
func (s *Set[K]) Remove(lo, hi K) { s.m.Delete(lo, hi) }

// Contains reports whether k is a member.
func (s *Set[K]) Contains(k K) bool {
	_, ok := s.m.Get(k)
	return ok
}

// Overlaps reports whether any member range intersects [lo, hi).
func (s *Set[K]) Overlaps(lo, hi K) bool { return s.m.Overlaps(lo, hi) }

// Covers reports whether every key in [lo, hi) is a member. Empty
// ranges are trivially covered.
func (s *Set[K]) Covers(lo, hi K) bool {
	if hi <= lo {
		return true
	}
	cur := lo
	s.m.Each(lo, hi, func(r Range[K], _ struct{}) bool {
		if r.Lo != cur {
			return false // gap
		}
		cur = r.Hi
		return true
	})
	return cur >= hi
}

// Each visits member ranges intersecting [lo, hi), clipped, ascending.
func (s *Set[K]) Each(lo, hi K, fn func(r Range[K]) bool) {
	s.m.Each(lo, hi, func(r Range[K], _ struct{}) bool { return fn(r) })
}

// Len returns the number of disjoint member ranges.
func (s *Set[K]) Len() int { return s.m.Len() }

// Clear empties the set, retaining capacity.
func (s *Set[K]) Clear() { s.m.Clear() }
