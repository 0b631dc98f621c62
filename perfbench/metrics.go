package main

import (
	"encoding/json"
	"io"
)

// metricDef declares one reported metric. Bound is set on end-to-end
// metrics only: the share of the parent commit's median by which the
// metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the pipeline sees, measured with
// tracing off. The times are CPU time, user and system over all
// threads: on a shared host the hypervisor takes ("steals") 0-30% of
// the virtual CPUs' time in episodes lasting minutes, and wall time
// follows it, while the kernel leaves most stolen time out of a
// process's CPU time. The timed calls
// run on one worker and do no I/O, so on a quiet machine a pass's CPU
// time is its wall time plus the collector's work on the other CPU.
// There is no memory metric here: a pass's peak resident set, and
// even the heap it allocates (trace chunks come from pools the
// collector empties), depend on where the collector's cycles fall. On
// queue-table1 the peak sat at about 179, 202 or 233 MiB from run to
// run and the allocation at 75 or 267 MiB, too wide for any bound. The
// traced run reports the peak as runtime.peak_rss_mb. work_per_cpu_s
// counts each workload's own unit of work (see
// workloadDef.workUnit): trace events on kv-serve and queue-table1,
// persist nodes on kv-check, crash states on crash-exhaustive.
var endToEnd = []metricDef{
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "work_per_cpu_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's per-layer metrics, named by module.
// README.md maps each to the end-to-end metric and workload it should
// move.
var perLayer = []metricDef{
	{Name: "workload.build_s", Unit: "s", Better: "lower"},
	{Name: "workload.events", Unit: "events", Better: "lower"},
	{Name: "bench.stream_s", Unit: "s", Better: "lower"},
	{Name: "bench.cache_hits", Unit: "count", Better: "higher"},
	{Name: "bench.cache_misses", Unit: "count", Better: "lower"},
	{Name: "bench.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "core.simulate_s", Unit: "s", Better: "lower"},
	{Name: "core.model_events_per_s", Unit: "events/s", Better: "higher"},
	{Name: "core.persists", Unit: "count", Better: "lower"},
	{Name: "core.placed", Unit: "count", Better: "lower"},
	{Name: "core.critical_path", Unit: "persists", Better: "lower"},
	{Name: "sweep.busy_frac", Unit: "fraction", Better: "higher"},
	{Name: "graph.build_s", Unit: "s", Better: "lower"},
	{Name: "graph.nodes", Unit: "count", Better: "lower"},
	{Name: "graph.edges", Unit: "count", Better: "lower"},
	{Name: "graph.edges_per_node", Unit: "edges/node", Better: "lower"},
	{Name: "graph.epoch.ops1024.build_s", Unit: "s", Better: "lower"},
	{Name: "graph.epoch.ops1024.edges", Unit: "count", Better: "lower"},
	{Name: "graph.epoch.ops1536.build_s", Unit: "s", Better: "lower"},
	{Name: "graph.epoch.ops1536.edges", Unit: "count", Better: "lower"},
	{Name: "graph.epoch.ops2048.build_s", Unit: "s", Better: "lower"},
	{Name: "graph.epoch.ops2048.edges", Unit: "count", Better: "lower"},
	{Name: "persistcheck.check_s", Unit: "s", Better: "lower"},
	{Name: "persistcheck.analysis_s", Unit: "s", Better: "lower"},
	{Name: "persistcheck.hazards", Unit: "count", Better: "lower"},
	{Name: "persistcheck.findings", Unit: "count", Better: "lower"},
	{Name: "exhaustive.check_s", Unit: "s", Better: "lower"},
	{Name: "exhaustive.self_s", Unit: "s", Better: "lower"},
	{Name: "exhaustive.states", Unit: "count", Better: "lower"},
	{Name: "exhaustive.cuts", Unit: "count", Better: "lower"},
	{Name: "exhaustive.signatures", Unit: "count", Better: "lower"},
	{Name: "exhaustive.peak_live", Unit: "count", Better: "lower"},
	{Name: "exhaustive.subsumed", Unit: "count", Better: "higher"},
	{Name: "exhaustive.memo_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "exhaustive.dup_recover_frac", Unit: "fraction", Better: "lower"},
	{Name: "recover.strict_calls", Unit: "count", Better: "lower"},
	{Name: "recover.strict_s", Unit: "s", Better: "lower"},
	{Name: "recover.salvage_calls", Unit: "count", Better: "lower"},
	{Name: "recover.salvage_s", Unit: "s", Better: "lower"},
	{Name: "recover.errors", Unit: "count", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "trace.coverage_frac", Unit: "fraction", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

// runSeconds is how long one run measures: a warm-up and three or more
// timed passes of queue-table1, whose pass is the longest (about 6.5 s
// on one worker), and many of the other workloads.
const runSeconds = 25

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkDoc is BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func describe() benchmarkDoc {
	d := benchmarkDoc{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		d.Workloads = append(d.Workloads, workloadDoc{Name: w.name, Why: w.why})
	}
	return d
}

func writeDescription(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(describe())
}
