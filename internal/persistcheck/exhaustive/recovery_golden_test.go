package exhaustive

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/kv"
	"repro/internal/memory"
	"repro/internal/persistcheck"
	"repro/internal/pstm"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recoveryGolden pins, per non-big fixture of the clean and broken
// matrices, the strict recovery outcome and recovered state of every
// reachable image in discovery order. The digests come from the
// hand-written strict parsers that the derived Recover (RecoverSalvage
// plus RecoveryReport.Err) replaced, and it must reproduce them.
var recoveryGolden = map[string]string{
	"queue-cwl-strict":               "893f5a7b78a2fc37074f46a1d530b15d282fb87da7e77d7fb9a9075a70b30139",
	"queue-cwl-epoch":                "9bbba9df3f0d7757a274118d2731a08f2bf0f45e14fcf0316fc5c2f8b287852b",
	"queue-cwl-strand":               "779c97c90fd2546e0deb0f85932f752cce50a5d8cc1340eb293a3c30a347ddf4",
	"queue-2lc-epoch":                "20fae84a88cd8a3f5b8240f1216dac11b38c7a5b3dca1d61b5a95f4d9d3cb020",
	"journal-strict":                 "47b8db3ba900a15014998c575b81e50d3aa6c27929a35808d2b8d0d753062060",
	"journal-epoch":                  "1f3d4f52c8ef96518c5581414629bca58ae126e7a27748c4cab76ab7b96db08f",
	"pstm-strict":                    "8222f2f85859bcdf3efa24d7dbe927bcc17ba336218b69ebe6d581f4556d20e7",
	"pstm-epoch":                     "1cdd1ea3e16c4a64688511dae321d229472e20d4761c722bd723fc20e5968b0c",
	"pstm-strand":                    "1cdd1ea3e16c4a64688511dae321d229472e20d4761c722bd723fc20e5968b0c",
	"queue-epoch-integrity":          "64b557ec87ca091352b56be12d70b96ae755f84c7a98a2f540ac538fa6c4e8a4",
	"journal-epoch-integrity":        "ae6b80fe6141d3a2cd42c244fc2bd03dd33cef0cb7ea113657a20932bbac1ada",
	"kv-strict":                      "fb93e6e0a5df5e9bbcd25a091c7e83b0a1deb5727789662bada3286e4106e9b3",
	"kv-epoch":                       "043e658f34cde23531f887c5e612b706bf0b5d41fb5c7789a8dc3e52fdf0c847",
	"kv-strand":                      "a2f289d4724e5c8c3c074a97e31a790363140d9c6870ebe911db7eaa866e8996",
	"queue-break-barrier":            "44e6242e7faa41664fd2b25900421ea85b7740d86917f465d02455c2a7296899",
	"queue-2lc-omit-completion":      "4963415978ea8a8a8c147e1d543e8f9f75a0fd25ceba14aa728e91fe3215c1b9",
	"journal-break-commit":           "eae61de142073e53f6633a58ec466acb86ad93a03d9381e094bc25af51ac0c1d",
	"pstm-racing":                    "229b9841d7c0d52931423843b27d946848b8ff1b09539452da0472aa7c9c0e4e",
	"journal-break-commit-integrity": "ae6b80fe6141d3a2cd42c244fc2bd03dd33cef0cb7ea113657a20932bbac1ada",
	"pstm-racing-integrity":          "11f566b7ce79418c0fb904df18ee8b8667657a048d7fdf8c8421e63205e1b4c4",
}

// strictRecoverer rebuilds a fixture's structure layout and returns a
// function that runs the structure's strict Recover on an image and
// writes its outcome and recovered state to h. The layout is rebuilt
// from the fixture (workload.Run exposes only closures), so it is
// cross-checked against the run's checker annotations.
func strictRecoverer(t *testing.T, fx fixture, run *workload.Run) func(h hash.Hash, im *memory.Image) {
	t.Helper()
	policy, err := workload.ParsePolicy(fx.policy)
	if err != nil {
		t.Fatal(err)
	}
	m := exec.NewMachine(exec.Config{Threads: fx.threads, Seed: fx.seed, Sink: trace.Discard})
	s := m.SetupThread()
	var checks persistcheck.Annotations
	var rec func(h hash.Hash, im *memory.Image)
	switch fx.wl {
	case "queue":
		design, err := workload.ParseDesign(fx.design)
		if err != nil {
			t.Fatal(err)
		}
		q := queue.MustNew(s, queue.Config{
			DataBytes: workload.DataBytes(fx.inserts, fx.payload), Design: design, Policy: policy,
			MaxThreads: fx.threads, BreakDataHeadOrder: fx.breakBar, OmitCompletionBarrier: fx.omitComp,
			Integrity: fx.integrity,
		})
		meta := q.Meta()
		checks = meta.Checks()
		rec = func(h hash.Hash, im *memory.Image) {
			entries, err := queue.Recover(im, meta)
			writeOutcome(h, err)
			for _, e := range entries {
				fmt.Fprintf(h, " %d:%x", e.Offset, e.Payload)
			}
		}
	case "journal":
		jp, err := workload.JournalPolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		st := journal.MustNew(s, journal.Config{
			Blocks: 2 * fx.threads, JournalBytes: 1 << 11, Policy: jp,
			BreakRecordCommitOrder: fx.breakCommit, OmitStrandRecipe: fx.omitRecipe, Integrity: fx.integrity,
		})
		meta := st.Meta()
		checks = meta.Checks()
		rec = func(h hash.Hash, im *memory.Image) {
			state, err := journal.Recover(im, meta)
			writeOutcome(h, err)
			if state != nil {
				fmt.Fprintf(h, " records=%d txns=%d", state.Records, state.Txns)
				for _, b := range state.Table {
					fmt.Fprintf(h, " %x", b)
				}
			}
		}
	case "pstm":
		hp, err := pstm.New(s, pstm.Config{Words: 2 * fx.threads, UndoCap: 8, Policy: workload.PSTMPolicy(policy), Integrity: fx.integrity})
		if err != nil {
			t.Fatal(err)
		}
		meta := hp.Meta()
		checks = meta.Checks()
		rec = func(h hash.Hash, im *memory.Image) {
			state, err := pstm.Recover(im, meta)
			writeOutcome(h, err)
			if state != nil {
				fmt.Fprintf(h, " rolledback=%t undone=%d words=%x", state.RolledBack, state.Undone, state.Words)
			}
		}
	case "kv":
		jp, err := workload.JournalPolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		st := kv.MustNew(s, kv.Config{Shards: 2, Keys: 8, Policy: jp, Integrity: fx.integrity})
		meta := st.Meta()
		checks = meta.Checks()
		rec = func(h hash.Hash, im *memory.Image) {
			state, err := kv.Recover(im, meta)
			writeOutcome(h, err)
			if state != nil {
				keys := make([]uint64, 0, len(state.Entries))
				for k := range state.Entries {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				fmt.Fprintf(h, " records=%d txns=%d", state.Records, state.Txns)
				for _, k := range keys {
					fmt.Fprintf(h, " %d=%v", k, state.Entries[k])
				}
			}
		}
	default:
		t.Fatalf("unknown workload %q", fx.wl)
	}
	if !reflect.DeepEqual(checks, run.Checks) {
		t.Fatalf("rebuilt %s layout disagrees with the workload's annotations", fx.wl)
	}
	return rec
}

// writeOutcome hashes a recovery error's class, not its text: the
// message wording is free to change, the verdict is not.
func writeOutcome(h hash.Hash, err error) {
	switch {
	case err == nil:
		h.Write([]byte(" ok"))
	case fault.IsCorruption(err):
		h.Write([]byte(" corrupt"))
	default:
		h.Write([]byte(" error"))
	}
}

// recoveryDigest hashes, in discovery order, every reachable image's
// strict structure-level outcome and state plus the workload's strict
// verdict (structure recovery and app invariants together).
func recoveryDigest(t *testing.T, fx fixture) (string, int) {
	fx = fx.withDefaults()
	run, _, model := buildRun(t, fx)
	rec := strictRecoverer(t, fx, run)
	g, err := graph.Build(run.Trace, core.Params{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := enumerate(g, Config{Budget: 1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, f := range sp.finals {
		im := memory.NewImage()
		for _, wv := range f.img {
			im.WriteWord(wv.addr, wv.val)
		}
		fmt.Fprintf(h, "%d", i)
		rec(h, im)
		fmt.Fprintf(h, " run=%t\n", run.Recover(im) == nil)
	}
	return hex.EncodeToString(h.Sum(nil)), len(sp.finals)
}

// TestStrictRecoveryGolden checks every non-big matrix fixture against
// its pinned strict-recovery digest.
func TestStrictRecoveryGolden(t *testing.T) {
	type tc struct {
		name string
		fx   fixture
	}
	var cases []tc
	for _, m := range cleanMatrix {
		if !m.big {
			cases = append(cases, tc{m.name, m.fx})
		}
	}
	for _, m := range brokenMatrix {
		cases = append(cases, tc{m.name, m.fx})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, n := recoveryDigest(t, c.fx)
			if want := recoveryGolden[c.name]; got != want {
				t.Errorf("%s: strict recovery digest over %d images = %s, want %s", c.name, n, got, want)
			}
		})
	}
}
