package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRunChecksExitContract pins -check's exit codes to the
// persistcheck CLI contract: 0 when the grid is clean, 2 when any
// policy has witness hazards. The racing discipline drops the
// journal's inner barrier, which the epoch-race detector flags on a
// write-heavy mix, so it is the seeded-hazard fixture here.
func TestRunChecksExitContract(t *testing.T) {
	clean, err := parseGrid("strict,epoch,strand", 2, 8, 2, 8, 0.5, 1.1, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := runChecks(clean, false, 0, 1, nil); got != 0 {
		t.Errorf("clean grid exited %d, want 0", got)
	}
	racing, err := parseGrid("racing", 2, 8, 2, 8, 0.5, 1.1, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := runChecks(racing, false, 0, 1, nil); got != 2 {
		t.Errorf("racing grid exited %d, want 2", got)
	}
}

// TestRunChecksExhaustive pins the -exhaustive path: the clean grid's
// every reachable crash state classifies as recovered, so the verdict
// stays 0 with the bounded model checker on.
func TestRunChecksExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration in -short mode")
	}
	// read-frac 0.75 keeps the strand-model crash-state space inside
	// the default budget (46 persists, ~10k reduced states from ~36M
	// cuts); at 0.5 the 67-persist trace exceeds 4M states.
	grid, err := parseGrid("strict,epoch,strand", 2, 8, 2, 8, 0.75, 1.1, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := runChecks(grid, true, 0, 0, nil); got != 0 {
		t.Errorf("clean grid with -exhaustive exited %d, want 0", got)
	}
}

// TestGraphDumpGolden pins -graph-dump on the CI smoke shape (8
// shards, 4096 keys, 8 threads, 2000 ops, epoch policy): the dump
// lists every node's In edges in order, so its digest fixes the graph
// builder's exact output on a real workload. The digest was taken from
// the frontier builder that preceded the current one.
func TestGraphDumpGolden(t *testing.T) {
	grid, err := parseGrid("epoch", 8, 4096, 8, 2000, 0.9, 1.1, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "graph.txt")
	if err := dumpGraph(path, grid[0], nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "c9a9ba7de9c442b30d18243889308130f76b0661f9befb77d25c4b4605d01fb5"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != golden {
		t.Errorf("graph dump sha256 %s, golden %s", got, golden)
	}
}
