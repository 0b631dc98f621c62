// Command perfbench is the pipeline benchmark: it runs one workload
// through the simulator's layers (workload → bench → core → graph →
// persistcheck → exhaustive → recovery), times the calls into each
// layer from outside the program, checks every output, and prints the
// metrics declared in BENCHMARK.json.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload NAME [--seed 42] [--seconds 25] [--trace 0|1]
//
// A run is one process running one workload: it sets the workload up
// setupReps times, makes one warm-up pass of the timed calls, and then
// passes until --seconds have elapsed, each from a collected heap.
// With --trace 0 it reports the end-to-end metrics: cpu_s is the sum
// over the workload's items of each item's median CPU time. With --trace 1
// it makes one untraced and one traced pass after the warm-up and
// reports the per-layer metrics; the traced pass's spans are written as
// Chrome trace-event JSON that Perfetto opens. Every pass's outputs are
// checked. The last line of standard output is the result as one JSON
// object; the exit status is 1 when any output is wrong.
//
// -describe prints BENCHMARK.json; -record FILE stores the run's
// outputs as the expected outputs for its seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 9

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: kv-serve, queue-table1, kv-check or crash-exhaustive")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the inputs and fixture seeds derive from it")
	seconds := fs.Float64("seconds", runSeconds, "make timed passes until this many seconds have elapsed (at least one)")
	traced := fs.Int("trace", 0, "1: one untraced and one traced pass after the warm-up, reporting the per-layer metrics")
	outDir := fs.String("out-dir", ".bench_build/perfbench", "directory for the result and span files")
	record := fs.String("record", "", "store this run's outputs as the expected outputs for -seed in this file")
	desc := fs.Bool("describe", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *desc {
		if err := writeDescription(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	def, ok := workloadByName(*name)
	if !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload kv-serve|queue-table1|kv-check|crash-exhaustive and -trace 0|1 (got %q, %d)\n", *name, *traced)
		return 2
	}
	man := telemetry.NewManifest("perfbench").CaptureFlags(fs).Seed("seed", *seed).ModelGrid(core.Models...)
	man.Flags["workers"] = strconv.Itoa(workers)
	expected := expectedJSON
	if *record != "" {
		expected = nil
	}

	fmt.Fprintln(stderr, man.String())
	cfg := runConfig{seconds: *seconds, traced: *traced == 1, progress: stderr}
	sess, err := newSession(def, *seed, expected)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	spansOut := artifactBase(*outDir, def.name, *seed, true) + ".spans.json"
	rep, err := measure(cfg, sess.setups, sess.runner(spansOut, man))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	if err := writeResult(artifactBase(*outDir, def.name, *seed, cfg.traced)+".result.json", def.name, cfg, man, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *record != "" && rep.failed == 0 {
		if err := recordExpected(*record, *seed, def.name, rep.outputs); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := printReport(stdout, def, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return rep.status()
}

// passReport is one checked pass: its timings and work, each item's
// time and outputs, and the items that failed. Per-layer metrics are set
// on a traced pass only.
type passReport struct {
	Wall, Extra, Work float64
	PeakRSS           float64 // MiB: the process's peak resident set during the pass
	Attempted         int
	Items             map[string]float64 // item → CPU seconds in its timed calls
	Failures          map[string]string  // item → why it failed
	Outputs           map[string]Output
	Layer             map[string]float64
}

// session is one workload set up for a run: the instance its passes
// run on, its set-up times, and the outputs its items are checked
// against.
type session struct {
	inst        instance
	expect, ref map[string]Output
	setups      []float64
}

// newSession sets the workload up setupReps times, each from a
// collected heap, timing each in CPU time, and keeps the last set-up.
func newSession(def workloadDef, seed int64, expected []byte) (*session, error) {
	s := &session{}
	var all expectations
	for k := 0; k < setupReps; k++ {
		s.inst = nil
		runtime.GC()
		c0 := cpuNow()
		var err error
		if all, err = loadExpected(expected); err != nil {
			return nil, err
		}
		if s.inst, err = def.setup(seed); err != nil {
			return nil, err
		}
		s.setups = append(s.setups, (cpuNow() - c0).Seconds())
	}
	s.expect, s.ref = all.at(seed, def.name), all.at(defaultSeed, def.name)
	return s, nil
}

// pass makes one pass of the timed calls, traced when spansOut is set,
// and checks every item. The pass starts from a collected heap whose
// free memory is returned to the kernel, so that, like a command-line
// run, it faults in the memory it uses, and its peak resident set does
// not depend on what earlier passes left mapped.
func (s *session) pass(spansOut string, man *telemetry.Manifest) (*passReport, error) {
	debug.FreeOSMemory()
	var tr *tracer
	if spansOut != "" {
		tr = newTracer(workers)
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	p := s.inst.pass(tr)
	peak, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	pr := &passReport{PeakRSS: peak,
		Wall: p.wall.Seconds(), Extra: p.extra.Seconds(), Work: p.work, Attempted: len(p.items),
		Items: make(map[string]float64, len(p.items)), Failures: map[string]string{},
		Outputs: make(map[string]Output, len(p.items)),
	}
	for _, it := range p.items {
		pr.Items[it.key] = it.cpu.Seconds()
		pr.Outputs[it.key] = it.out
		if err := checkItem(it, s.expect, s.ref); err != nil {
			pr.Failures[it.key] = err.Error()
		}
	}
	if tr != nil {
		pr.Layer = layerMetrics(tr, p)
		if err := writeSpans(spansOut, man, tr); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// passRunner makes one pass, traced or not.
type passRunner func(traced bool) (*passReport, error)

// runner makes the session's passes; a traced pass writes its spans to
// spansOut.
func (s *session) runner(spansOut string, man *telemetry.Manifest) passRunner {
	return func(traced bool) (*passReport, error) {
		if traced {
			return s.pass(spansOut, man)
		}
		return s.pass("", nil)
	}
}

type runConfig struct {
	seconds  float64
	traced   bool
	progress io.Writer // one line per finished pass; nil for none
}

type metricValue struct {
	def   metricDef
	value float64
}

type report struct {
	passes, attempted, failed int
	failures                  []string
	metrics                   []metricValue
	outputs                   map[string]Output
}

// status is the run's exit status: 1 when any item failed.
func (r *report) status() int {
	if r.failed > 0 {
		return 1
	}
	return 0
}

// measure makes a run's passes and aggregates them into the metrics
// of the requested mode; setups are the run's set-up times. Both modes
// start with an untimed warm-up pass. Untraced, it then makes timed
// passes until cfg.seconds have elapsed; traced, one untraced and one
// traced pass. Every pass's outputs are checked.
func measure(cfg runConfig, setups []float64, runPass passRunner) (*report, error) {
	rep := &report{}
	add := func(pr *passReport) {
		rep.passes++
		rep.attempted += pr.Attempted
		if cfg.progress != nil {
			var cpu float64
			for _, c := range pr.Items {
				cpu += c
			}
			fmt.Fprintf(cfg.progress, "perfbench: pass %d: %.3fs wall, %.3fs CPU in items, peak RSS %.1f MiB\n",
				rep.passes, pr.Wall, cpu, pr.PeakRSS)
		}
		first := rep.outputs == nil
		if first {
			rep.outputs = pr.Outputs
		}
		for _, k := range sortedKeys(pr.Outputs) {
			why, failed := pr.Failures[k]
			// Every pass runs the same inputs: outputs must repeat exactly.
			if !failed && !first && !reflect.DeepEqual(rep.outputs[k], pr.Outputs[k]) {
				why, failed = fmt.Sprintf("output %+v differs from the first pass's %+v", pr.Outputs[k], rep.outputs[k]), true
			}
			if failed {
				rep.failed++
				rep.failures = append(rep.failures, fmt.Sprintf("pass %d %s: %s", rep.passes, k, why))
			}
		}
	}

	start := time.Now()
	warm, err := runPass(false)
	if err != nil {
		return nil, err
	}
	add(warm)

	if cfg.traced {
		un, err := runPass(false)
		if err != nil {
			return nil, err
		}
		add(un)
		tp, err := runPass(true)
		if err != nil {
			return nil, err
		}
		add(tp)
		tp.Layer["trace.overhead_frac"] = (tp.Wall-tp.Extra)/un.Wall - 1
		tp.Layer["runtime.peak_rss_mb"] = un.PeakRSS
		for _, d := range perLayer {
			rep.metrics = append(rep.metrics, metricValue{d, tp.Layer[d.Name]})
		}
		return rep, nil
	}

	items := map[string][]float64{}
	var works []float64
	for len(works) == 0 || time.Since(start).Seconds() < cfg.seconds {
		pr, err := runPass(false)
		if err != nil {
			return nil, err
		}
		add(pr)
		for k, d := range pr.Items {
			items[k] = append(items[k], d)
		}
		works = append(works, pr.Work)
	}
	// The sum of per-item medians: a burst of load on the machine
	// lengthens the items it overlaps in one pass, not the sum.
	var cpu float64
	for _, cs := range items {
		cpu += median(cs)
	}
	values := map[string]float64{
		"cpu_s":          cpu,
		"work_per_cpu_s": median(works) / cpu,
		"setup_s":        median(setups),
	}
	for _, d := range endToEnd {
		rep.metrics = append(rep.metrics, metricValue{d, values[d.Name]})
	}
	return rep, nil
}

// checkItem applies an item's seed-independent correctness condition
// and compares its output with the one recorded for this seed, or, for
// an item whose inputs do not depend on the seed, with the default
// seed's (ref).
func checkItem(it itemResult, expect, ref map[string]Output) error {
	if it.err != nil {
		return it.err
	}
	if it.clean != nil {
		if err := it.clean(it.out); err != nil {
			return err
		}
	}
	if expect == nil && it.pinned {
		expect = ref
	}
	if expect == nil {
		return nil
	}
	want, ok := expect[it.key]
	if !ok {
		return fmt.Errorf("no expected output recorded")
	}
	if !reflect.DeepEqual(want, it.out) {
		return fmt.Errorf("output %+v, expected %+v", it.out, want)
	}
	return nil
}

// layerMetrics derives the per-layer metrics of traced pass tp from its
// spans and counts; trace.overhead_frac needs an untraced pass and is
// set by measure.
func layerMetrics(tr *tracer, tp passOut) map[string]float64 {
	l := make(map[string]float64, len(tp.layer)+16)
	for k, v := range tp.layer {
		l[k] = v
	}
	tot := tr.layerTotals()
	l["workload.build_s"] = tot["workload"].Seconds()
	l["bench.stream_s"] = tot["bench"].Seconds()
	l["core.simulate_s"] = tot["core"].Seconds()
	if s := l["core.simulate_s"]; s > 0 {
		l["core.model_events_per_s"] = tp.modelEvents / s
	}
	if w := tp.sweepWorkers; w > 0 {
		l["sweep.busy_frac"] = tr.catTotal("item").Seconds() / (tp.wall.Seconds() * float64(w))
	}
	l["graph.build_s"] = tot["graph"].Seconds()
	if n := l["graph.nodes"]; n > 0 {
		l["graph.edges_per_node"] = l["graph.edges"] / n
	}
	if s := tot["persistcheck"].Seconds(); s > 0 {
		l["persistcheck.check_s"] = s
		l["persistcheck.analysis_s"] = s - l["graph.build_s"]
	}
	if s := tot["exhaustive"].Seconds(); s > 0 {
		l["exhaustive.check_s"] = s
		l["exhaustive.self_s"] = s - l["recover.strict_s"] - l["recover.salvage_s"]
	}
	if st := l["exhaustive.states"]; st > 0 {
		l["exhaustive.memo_hit_frac"] = 1 - l["recover.strict_calls"]/st
	}
	if c := l["recover.strict_calls"]; c > 0 {
		l["exhaustive.dup_recover_frac"] = (c - l["exhaustive.signatures"]) / c
	}
	l["trace.coverage_frac"] = tr.coverage()
	return l
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuNow is the CPU time, user and system, that all of the process's
// threads have used so far. On a virtual machine the kernel leaves most
// of the time the host ran other machines on the virtual CPUs (steal)
// out of it.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// It fails only for an invalid who or pointer.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's count of the process's peak
// resident set (VmHWM) from its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set since the last
// resetPeakRSS. Each run is its own process running one workload, so no
// other workload's peak is in it.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resultDoc is the manifest-stamped result file written beside the
// printed result.
type resultDoc struct {
	Manifest  *telemetry.Manifest `json:"manifest"`
	Workload  string              `json:"workload"`
	Traced    bool                `json:"traced"`
	Passes    int                 `json:"passes"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	Metrics   map[string]float64  `json:"metrics"`
	Outputs   map[string]Output   `json:"outputs"`
}

func artifactBase(dir, name string, seed int64, traced bool) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, btoi(traced)))
}

func writeResult(path, name string, cfg runConfig, man *telemetry.Manifest, rep *report) error {
	doc := resultDoc{
		Manifest: man, Workload: name, Traced: cfg.traced, Passes: rep.passes,
		Attempted: rep.attempted, Failed: rep.failed, Failures: rep.failures,
		Metrics: map[string]float64{}, Outputs: rep.outputs,
	}
	for _, m := range rep.metrics {
		doc.Metrics[m.def.Name] = m.value
	}
	return writeJSONFile(path, doc)
}

// writeSpans exports the traced pass's spans as Chrome trace-event
// JSON, with the manifest in the document metadata.
func writeSpans(path string, man *telemetry.Manifest, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.EncodeChromeTraceDoc(f, man, tr.st); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricPoint `json:"metrics"`
}

type metricPoint struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(w io.Writer, def workloadDef, rep *report) error {
	fmt.Fprintf(w, "%s: %d passes, %d items attempted, %d failed (failed_frac %g)\n",
		def.name, rep.passes, rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, f := range rep.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricPoint{}}
	for _, m := range rep.metrics {
		note := ""
		if m.def.Name == "work_per_cpu_s" {
			note = "  (" + def.workUnit + " per CPU second)"
		}
		fmt.Fprintf(w, "  %-30s %-14.6g %s%s\n", m.def.Name, m.value, m.def.Unit, note)
		res.Metrics[m.def.Name] = metricPoint{Value: m.value, Unit: m.def.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Fprintln(w, string(line))
	return nil
}
