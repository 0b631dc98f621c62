package graph

// RandomTrace exposes the differential tests' random trace generator
// to the external golden-digest test (package graph_test), which must
// live outside package graph to import internal/workload.
var RandomTrace = randomTrace
