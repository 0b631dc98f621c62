package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestRedundantAnnotationsRemovable checks BarrierInfo.Redundant
// against its definition, using the reference builder as the oracle:
// deleting every annotation BuildWithBarriers marks redundant must
// leave the constraint graph's edge set unchanged.
func TestRedundantAnnotationsRemovable(t *testing.T) {
	removed, kept := 0, 0
	for seed := int64(0); seed < 25; seed++ {
		tr := randomTrace(rand.New(rand.NewSource(seed)), 200)
		for _, m := range core.Models {
			for _, gran := range []uint64{0, 32} {
				p := core.Params{Model: m, TrackingGranularity: gran}
				ctx := fmt.Sprintf("seed %d model %v gran %d", seed, m, gran)
				_, infos, err := BuildWithBarriers(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				redundant := make(map[uint64]bool)
				for _, b := range infos {
					if b.Redundant {
						redundant[b.Seq] = true
					}
				}
				removed += len(redundant)
				kept += len(infos) - len(redundant)
				pruned := &trace.Trace{}
				var seqs []uint64 // position in pruned -> Seq in tr
				for e := range tr.All() {
					if !redundant[e.Seq] {
						pruned.Emit(e)
						seqs = append(seqs, e.Seq)
					}
				}
				got, err := refBuild(pruned, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range got.Nodes {
					n.Event.Seq = seqs[n.Event.Seq]
				}
				want, err := refBuild(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				requireSameGraph(t, ctx, got, want)
			}
		}
	}
	if removed == 0 || kept == 0 {
		t.Fatalf("vacuous: %d redundant and %d effective annotations", removed, kept)
	}
	t.Logf("%d redundant annotations removed, %d kept", removed, kept)
}
