package graph

// nodeSet helpers for the reference builder (refbuild_test.go), which
// keeps its frontiers as maps; the production builder only uses
// nodeSet for a thread's pending imports.

func (s nodeSet) add(ids ...NodeID) nodeSet {
	if s == nil {
		s = make(nodeSet)
	}
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

func (s nodeSet) union(o nodeSet) nodeSet {
	if len(o) == 0 {
		return s
	}
	if s == nil {
		s = make(nodeSet)
	}
	for id := range o {
		s[id] = struct{}{}
	}
	return s
}

func (s nodeSet) clone() nodeSet {
	c := make(nodeSet, len(s))
	for id := range s {
		c[id] = struct{}{}
	}
	return c
}
