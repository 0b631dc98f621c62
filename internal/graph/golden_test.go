package graph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/memory"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeDigest feeds one build's exact output to h: every node's event,
// its In edges in order, the frontier Stats, and the per-annotation
// report. Anything that changes node order, edge order, edge classes,
// Stats or BarrierInfo changes the digest. Node lines are formatted
// with strconv appends (the KV trace has ~1.8M edges); the bytes are
// those of "%d %d %d %d %x %d |" plus " %d:%d" per edge.
func writeDigest(h hash.Hash, g *graph.Graph, infos []graph.BarrierInfo) {
	var buf []byte
	for _, n := range g.Nodes {
		e := n.Event
		buf = strconv.AppendUint(buf[:0], e.Seq, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.TID), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(e.Kind), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(e.Size), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(e.Addr), 16)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, e.Val, 10)
		buf = append(buf, " |"...)
		for _, in := range n.In {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(in.From), 10)
			buf = append(buf, ':')
			buf = strconv.AppendUint(buf, uint64(in.Class), 10)
		}
		buf = append(buf, '\n')
		h.Write(buf)
	}
	s := g.Stats
	fmt.Fprintf(h, "stats %d %d %d %d\n", s.FrontierRanges, s.PeakRanges, s.Splits, s.Coalesces)
	for _, b := range infos {
		fmt.Fprintf(h, "barrier %d %d %d %d %t\n", b.Seq, b.TID, b.Kind, b.Epoch, b.Redundant)
	}
}

func digestOf(g *graph.Graph, infos []graph.BarrierInfo) string {
	h := sha256.New()
	writeDigest(h, g, infos)
	return hex.EncodeToString(h.Sum(nil))
}

// psoTrace is a machine-generated PSO-reordered trace with multi-word
// stores that cross block boundaries at coarse granularity.
func psoTrace(seed int64) *trace.Trace {
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: 3, Seed: seed, Sink: tr, Consistency: exec.PSO})
	s := m.SetupThread()
	base := s.MallocPersistent(1024, 64)
	flag := s.MallocVolatile(8, 8)
	m.Run(func(th *exec.Thread) {
		for i := uint64(0); i < 30; i++ {
			th.Store8(base+memory.Addr(th.TID()*256)+memory.Addr((i%4)*8), i)
			if i%5 == 0 {
				th.PersistBarrier()
			}
			if i%7 == 0 {
				th.Fence()
				th.Add8(flag, 1)
			}
		}
	})
	return tr
}

// goldenTraces returns the traces of one golden family, in order:
// "random" is the differential tests' random traces (seeds 0-24),
// "pso" the PSO machine traces (seeds 0-5), and "kv" the KV serving
// trace at the CI smoke shape (8 shards, 4096 keys, 8 threads, 2000
// ops, epoch policy).
func goldenTraces(t *testing.T, family string) []*trace.Trace {
	t.Helper()
	var trs []*trace.Trace
	switch family {
	case "random":
		for seed := int64(0); seed < 25; seed++ {
			trs = append(trs, graph.RandomTrace(rand.New(rand.NewSource(seed)), 200))
		}
	case "pso":
		for seed := int64(0); seed < 6; seed++ {
			trs = append(trs, psoTrace(seed))
		}
	case "kv":
		run, err := workload.BuildKV(workload.KVOptions{
			Shards: 8, Keys: 4096, Threads: 8, Ops: 2000, ReadFrac: 0.9, ZipfS: 1.1,
			Policy: journal.PolicyEpoch, Seed: 42, PolicyStr: "epoch",
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		trs = []*trace.Trace{run.Trace}
	default:
		t.Fatalf("unknown golden family %q", family)
	}
	return trs
}

// goldenDigests pins the builder's exact output. Each digest chains
// writeDigest over every trace of the family, in order, building with
// Build for the graph and BuildWithBarriers for the annotation report.
// The values were computed from the serial frontier builder that
// preceded the current one, so they hold the rewrite to the old node
// order, in-edge order, Stats and BarrierInfo. Semantic equivalence
// with the retained reference builder is checked separately
// (refbuild_test.go); these digests catch any drift in order or Stats
// that an edge-set comparison would forgive.
var goldenDigests = []struct {
	family string
	model  core.Model
	gran   uint64
	digest string
}{
	{"random", core.Strict, 0, "689d9a259df0ac19123625125816fa33d1be43a70b69f4ae5d07dec0d11f3060"},
	{"random", core.Strict, 32, "a29de0f2036cdff6d51900f1186548eaa3d0da6dceee9dedd7d99af9816b2d2c"},
	{"random", core.Epoch, 0, "a374c156ff82230f8de293343f6e99e9a93417455be640c7bbe1682a378d1ca9"},
	{"random", core.Epoch, 32, "7799e219394b1ffa9a14cf49a6af05e8c4ac0ad350781fc17debf9f91d6c49d7"},
	{"random", core.EpochTSO, 0, "a02e30012628413426a52977da8f8779430d7ec89e6e0b7865c2da6399b3c555"},
	{"random", core.EpochTSO, 32, "16ad95769a1c2d4c2ae3f0cdadf1467eed151b7afe879e9e242820130c1070d2"},
	{"random", core.Strand, 0, "1fe36610fade31b1a79f60a435c25f328e0d07be2932510cdb3579569af911a7"},
	{"random", core.Strand, 32, "a57569c448dd30f5637d9505d824f148ddd4b58c34e9f58100f8eea5db01a52e"},
	{"pso", core.Strict, 0, "cb248cd8d13d03c972dd98a4f0d5d0fb4b54fde379d8e5ddab76657c2a65bd53"},
	{"pso", core.Strict, 32, "cb6cfec89d0606e7bb5d0644805e6ae3f1ec365a36d7e122f247011789824a4c"},
	{"pso", core.Epoch, 0, "a4035b659c2470b0bc702df4711c5850aef61147b1942e5df5519dbd3e0e409b"},
	{"pso", core.Epoch, 32, "191ec2c5a989e3abdbbcb8250788b20e60b576e83647c5dce0fdcbeb0eebf23d"},
	{"pso", core.EpochTSO, 0, "d8014ecbbcccde3526767dcb4c7c67b4a1ac50be5d1d10559771f95c36f5edb8"},
	{"pso", core.EpochTSO, 32, "508b912e55f22dbd549af67c588dfc901feeaf62ad88766e338fd4f7a7604f37"},
	{"pso", core.Strand, 0, "a4035b659c2470b0bc702df4711c5850aef61147b1942e5df5519dbd3e0e409b"},
	{"pso", core.Strand, 32, "191ec2c5a989e3abdbbcb8250788b20e60b576e83647c5dce0fdcbeb0eebf23d"},
	{"kv", core.Strict, 0, "770c728727c27dcf87970dcb641323b5e644fd5051517edd0eedba4f66265734"},
	{"kv", core.Epoch, 0, "7851d8689a76bd3bbf8db849a4447e8561fbaea52b196ba2b8833cb6385d85da"},
	{"kv", core.EpochTSO, 0, "db57c4d4041c097bfa876167c32f2d2b3f3b55326261298541808d19875e1e67"},
	{"kv", core.Strand, 0, "7851d8689a76bd3bbf8db849a4447e8561fbaea52b196ba2b8833cb6385d85da"},
}

// checkGoldenFamily builds every trace of family under each golden
// (model, granularity) row for it and compares the chained digest.
func checkGoldenFamily(t *testing.T, family string) {
	trs := goldenTraces(t, family)
	rows := 0
	for _, tc := range goldenDigests {
		if tc.family != family {
			continue
		}
		rows++
		t.Run(fmt.Sprintf("%v/gran%d", tc.model, tc.gran), func(t *testing.T) {
			p := core.Params{Model: tc.model, TrackingGranularity: tc.gran}
			h := sha256.New()
			for i, tr := range trs {
				g, err := graph.Build(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				bg, infos, err := graph.BuildWithBarriers(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				// BuildWithBarriers' graph is Build's, Stats included.
				if got, want := digestOf(bg, infos), digestOf(g, infos); got != want {
					t.Errorf("trace %d: BuildWithBarriers graph differs from Build's (stats %+v vs %+v)", i, bg.Stats, g.Stats)
				}
				writeDigest(h, g, infos)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("digest %s, golden %s", got, tc.digest)
			}
		})
	}
	if rows == 0 {
		t.Fatalf("no golden digests for family %q", family)
	}
}

// TestBuildGoldenDigests pins Build's exact output on the random traces.
func TestBuildGoldenDigests(t *testing.T) { checkGoldenFamily(t, "random") }

// TestBuildGoldenDigestsOnPSO pins it on machine-generated PSO traces
// with multi-word stores crossing block boundaries at granularity 32.
func TestBuildGoldenDigestsOnPSO(t *testing.T) { checkGoldenFamily(t, "pso") }

// TestBuildGoldenDigestsOnKV pins it on the KV serving trace.
func TestBuildGoldenDigestsOnKV(t *testing.T) { checkGoldenFamily(t, "kv") }
