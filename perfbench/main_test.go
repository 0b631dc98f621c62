package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// Tiny versions of the four workloads: the same code paths at sizes
// that run in about a second each.
var (
	tinyKV   = kvShape{shards: 4, keys: 64, threads: 4, ops: 256, readFrac: 0.9, zipfS: 1.1}
	tinyDefs = []workloadDef{
		kvServeDef(tinyKV),
		table1Def(table1Shape{inserts: 64, payload: 16, threads: []int{1, 2}}),
		kvCheckDef(tinyKV, []int{64, 128}),
		crashExhaustiveDef([]fixture{exhaustiveMatrix[0], exhaustiveMatrix[6], exhaustiveMatrix[14], exhaustiveMatrix[17]}),
	}
)

// setUp sets def up at seed 42 against expected, failing the test on
// an error.
func setUp(t *testing.T, def workloadDef, expected []byte) *session {
	t.Helper()
	s, err := newSession(def, 42, expected)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// measureTiny makes a zero-second run of def against expected.
func measureTiny(t *testing.T, def workloadDef, expected []byte, traced bool) *report {
	t.Helper()
	s := setUp(t, def, expected)
	spans := filepath.Join(t.TempDir(), def.name+".spans.json")
	rep, err := measure(runConfig{traced: traced}, s.setups, s.runner(spans, telemetry.NewManifest("perfbench-test")))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// lastLine decodes the printed result line.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

func benchmarkJSON(t *testing.T) benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func names(ms []metricDef) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONIsDescribed pins BENCHMARK.json to the metric and
// workload declarations it is generated from (-describe).
func TestBenchmarkJSONIsDescribed(t *testing.T) {
	if got, want := benchmarkJSON(t), describe(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate with -describe\nfile:     %+v\ndescribe: %+v", got, want)
	}
}

// TestChecksAreNotVacuous runs each workload at tiny size against
// outputs recorded from a first run: it must pass, and flipping one
// expected critical path, verdict or count must fail it with a
// nonzero status. The printed metric names must be BENCHMARK.json's.
func TestChecksAreNotVacuous(t *testing.T) {
	doc := benchmarkJSON(t)
	for _, def := range tinyDefs {
		t.Run(def.name, func(t *testing.T) {
			first, err := setUp(t, def, nil).pass("", nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(first.Failures) > 0 {
				t.Fatalf("unexpected failures: %v", first.Failures)
			}
			exp := expectations{"42": {def.name: first.Outputs}}
			good, err := json.Marshal(exp)
			if err != nil {
				t.Fatal(err)
			}

			for _, traced := range []bool{false, true} {
				rep := measureTiny(t, def, good, traced)
				var out bytes.Buffer
				if err := printReport(&out, def, rep); err != nil {
					t.Fatal(err)
				}
				res := lastLine(t, out.String())
				if !res.Correct || res.Failed != 0 || rep.status() != 0 {
					t.Fatalf("traced=%v: clean run failed:\n%s", traced, out.String())
				}
				want := names(doc.EndToEnd)
				if traced {
					want = names(doc.PerLayer)
				}
				got := make([]string, 0, len(res.Metrics))
				for k := range res.Metrics {
					got = append(got, k)
				}
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("traced=%v: printed metrics %v, BENCHMARK.json declares %v", traced, got, want)
				}
			}

			flipped := flip(t, def.name, first.Outputs)
			bad, err := json.Marshal(expectations{"42": {def.name: flipped}})
			if err != nil {
				t.Fatal(err)
			}
			rep := measureTiny(t, def, bad, false)
			var out bytes.Buffer
			if err := printReport(&out, def, rep); err != nil {
				t.Fatal(err)
			}
			res := lastLine(t, out.String())
			if res.Correct || res.Failed == 0 || rep.status() == 0 {
				t.Fatalf("flipped expectation not caught:\n%s", out.String())
			}
		})
	}
}

// flip returns a copy of outputs with one expected value changed: a
// critical path, a verdict or a findings count.
func flip(t *testing.T, workload string, outputs map[string]Output) map[string]Output {
	t.Helper()
	out := make(map[string]Output, len(outputs))
	for k, o := range outputs {
		c := Output{Verdict: o.Verdict, Counts: map[string]int64{}}
		for n, v := range o.Counts {
			c.Counts[n] = v
		}
		out[k] = c
	}
	key := sortedKeys(out)[0]
	o := out[key]
	switch workload {
	case "kv-serve":
		o.Counts["strict.critical_path"]++
	case "queue-table1":
		o.Counts["critical_path"]++
	case "kv-check":
		o.Counts["persists"]++
	case "crash-exhaustive":
		o.Verdict = "detectably-recoverable"
	default:
		t.Fatalf("no flip for %s", workload)
	}
	out[key] = o
	return out
}

// TestCleanConditionsFailWithoutExpectations: at a seed with no
// recorded outputs the seed-independent conditions still apply.
func TestCleanConditionsFailWithoutExpectations(t *testing.T) {
	for _, tc := range []struct {
		clean func(Output) error
		out   Output
	}{
		{durablyLinearizable, Output{Verdict: "hazardous", Counts: map[string]int64{"hazards": 1}}},
		{durablyLinearizable, Output{Verdict: "durably-linearizable", Counts: map[string]int64{"detected": 1}}},
		{noHazards, Output{Counts: map[string]int64{"hazards": 2}}},
	} {
		if err := checkItem(itemResult{key: "x", out: tc.out, clean: tc.clean}, nil, nil); err == nil {
			t.Errorf("%+v passed its clean condition", tc.out)
		}
	}
}

// TestPinnedItemsUseDefaultSeedOutputs: an item whose inputs do not
// depend on the seed is checked exactly at every seed.
func TestPinnedItemsUseDefaultSeedOutputs(t *testing.T) {
	ref := map[string]Output{"x": {Counts: map[string]int64{"persists": 7}}}
	got := Output{Counts: map[string]int64{"persists": 8}}
	if err := checkItem(itemResult{key: "x", out: got, pinned: true}, nil, ref); err == nil {
		t.Error("pinned item differing from the default seed's output passed")
	}
	if err := checkItem(itemResult{key: "x", out: got}, nil, ref); err != nil {
		t.Errorf("seeded item checked against another seed's output: %v", err)
	}
}

// TestTracedRunSpans checks the traced pass's span export: Chrome
// trace-event JSON with the manifest, one complete event per span, and
// layer spans covering the pass.
func TestTracedRunSpans(t *testing.T) {
	def := tinyDefs[0]
	path := filepath.Join(t.TempDir(), "spans.json")
	pr, err := setUp(t, def, nil).pass(path, telemetry.NewManifest("perfbench-test"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph, Cat, Name string
			Args          map[string]any
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Metadata["manifest"] == nil {
		t.Error("span file has no manifest")
	}
	cats := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			cats[e.Cat]++
			for _, a := range []string{"span", "parent", "item"} {
				if _, ok := e.Args[a]; !ok && e.Cat != "pass" {
					t.Errorf("%s/%s span without %q", e.Cat, e.Name, a)
				}
			}
		}
	}
	want := fmt.Sprint(map[string]int{"core": 4, "item": 4, "pass": 1, "workload": 4})
	if fmt.Sprint(cats) != want {
		t.Errorf("span categories %v, want %v", cats, want)
	}
	if c := pr.Layer["trace.coverage_frac"]; c <= 0 || c > 1 {
		t.Errorf("coverage %v out of (0, 1]", c)
	}
}

// TestExpectedTable1MatchesGolden ties queue-table1's recorded outputs
// at the default seed to the checked-in Table 1 artifact.
func TestExpectedTable1MatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("../BENCH_table1.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Rows []struct {
			Design       string `json:"design"`
			Policy       string `json:"policy"`
			Threads      int    `json:"threads"`
			Persists     int64  `json:"persists"`
			Placed       int64  `json:"placed"`
			Coalesced    int64  `json:"coalesced"`
			CriticalPath int64  `json:"critical_path"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	all, err := loadExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	exp := all.at(defaultSeed, "queue-table1")
	if len(golden.Rows) != 16 || len(exp) != 16 {
		t.Fatalf("rows: golden %d, recorded %d, want 16", len(golden.Rows), len(exp))
	}
	for _, r := range golden.Rows {
		key := fmt.Sprintf("%s/%s/t%d", r.Design, r.Policy, r.Threads)
		want := Output{Counts: map[string]int64{
			"persists": r.Persists, "placed": r.Placed, "coalesced": r.Coalesced, "critical_path": r.CriticalPath,
		}}
		if got := exp[key]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recorded %+v, BENCH_table1.json %+v", key, got, want)
		}
	}
}

// TestPassesMustRepeatOutputs: a pass whose output differs from the
// run's first pass fails, even with no recorded outputs.
func TestPassesMustRepeatOutputs(t *testing.T) {
	var n int64
	runner := func(bool) (*passReport, error) {
		n++
		return &passReport{
			Wall: 1, Work: 1, Attempted: 1, Failures: map[string]string{}, Layer: map[string]float64{},
			Outputs: map[string]Output{"x": {Counts: map[string]int64{"persists": n}}},
		}, nil
	}
	rep, err := measure(runConfig{traced: true}, nil, runner)
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted != 3 || rep.failed != 2 || rep.status() == 0 {
		t.Errorf("attempted %d failed %d status %d, want 3, 2 and nonzero", rep.attempted, rep.failed, rep.status())
	}
}
