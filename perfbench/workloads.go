package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/persistcheck"
	"repro/internal/persistcheck/exhaustive"
	"repro/internal/queue"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// workers is the sweep and exhaustive-checker worker count. One
// worker keeps the timed work on a single thread, so its CPU time does
// not depend on how the host schedules a second one; the collector
// still has the other CPU of a 2-CPU machine.
const workers = 1

// Output is one workload item's checked result: simulated or checker
// counts, plus the exhaustive checker's verdict.
type Output struct {
	Verdict string           `json:"verdict,omitempty"`
	Counts  map[string]int64 `json:"counts"`
}

// itemResult is one workload item of one pass. cpu is the CPU time of
// the item's timed calls; clean, when set, is the item's seed-independent
// correctness condition; pinned marks an item whose inputs are the same
// at every workload seed.
type itemResult struct {
	key    string
	cpu    time.Duration
	out    Output
	err    error
	clean  func(Output) error
	pinned bool
}

// passOut is one pass over a workload's timed calls.
type passOut struct {
	wall  time.Duration
	work  float64 // what work_per_cpu_s counts, summed over the pass
	items []itemResult
	// layer holds the per-layer counts the pass observed; the traced
	// pass adds times derived from its spans.
	layer map[string]float64
	// extra is time spent in calls only the traced pass makes.
	extra time.Duration
	// sweepWorkers is the sweep's worker count, 0 for a sequential pass.
	sweepWorkers int
	// modelEvents counts events times the models simulating each.
	modelEvents float64
}

// instance is a set-up workload, ready to run passes.
type instance interface {
	pass(tr *tracer) passOut
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name     string
	why      string
	workUnit string // what work_per_cpu_s counts
	setup    func(seed int64) (instance, error)
}

// kvShape is the sharded KV store and traffic shape.
type kvShape struct {
	shards   int
	keys     uint64
	threads  int
	ops      int
	readFrac float64
	zipfS    float64
}

// serveShape is kvbench's serving point at a quarter of its ops: 64
// shards, 64k keys, 64 threads, 32k ops, 90% reads at Zipf 1.1. At
// 128k ops a pass takes 6 s on one worker and peaks at 1.2 GiB; at 32k
// a run times many passes.
var serveShape = kvShape{shards: 64, keys: 1 << 16, threads: 64, ops: 1 << 15, readFrac: 0.9, zipfS: 1.1}

func (s kvShape) options(policy string, ops int, seed int64) (workload.KVOptions, queue.Policy, error) {
	qp, err := workload.ParsePolicy(policy)
	if err != nil {
		return workload.KVOptions{}, 0, err
	}
	jp, err := workload.JournalPolicy(qp)
	if err != nil {
		return workload.KVOptions{}, 0, err
	}
	return workload.KVOptions{
		Shards: s.shards, Keys: s.keys, Threads: s.threads, Ops: ops,
		ReadFrac: s.readFrac, ZipfS: s.zipfS, Policy: jp, Seed: seed, PolicyStr: policy,
	}, qp, nil
}

// ---- kv-serve ----------------------------------------------------------

func kvServeDef(shape kvShape) workloadDef {
	return workloadDef{
		name:     "kv-serve",
		why:      "serving path: KV trace generation plus 4-model simulation, no graph; generate-then-replay is where memory peaks",
		workUnit: "trace events generated",
		setup: func(seed int64) (instance, error) {
			w := &kvServe{}
			for _, p := range []string{"strict", "epoch", "racing", "strand"} {
				o, _, err := shape.options(p, shape.ops, seed)
				if err != nil {
					return nil, err
				}
				w.grid = append(w.grid, o)
			}
			return w, nil
		},
	}
}

type kvServe struct{ grid []workload.KVOptions }

func (w *kvServe) pass(tr *tracer) passOut {
	type out struct {
		res    []core.Result
		events int
		cpu    time.Duration
		err    error
	}
	outs := make([]out, len(w.grid))
	cache := bench.NewTraceCache(bench.DefaultCacheEntries)
	root := tr.start("pass", "kv-serve", nil)
	t0 := time.Now()
	_ = sweep.Run(len(w.grid), sweep.Config{Parallel: workers}, func(i int) (struct{}, error) {
		it := tr.item(root, w.grid[i].PolicyStr, i)
		defer it.end()
		c1 := cpuNow()
		sp := it.call("workload", "BuildKV")
		run, err := workload.BuildKV(w.grid[i], cache)
		sp.end()
		if err != nil {
			outs[i] = out{cpu: cpuNow() - c1, err: err}
			return struct{}{}, nil
		}
		sp = it.call("core", "SimulateAll")
		res, err := core.SimulateAll(run.Trace, core.Params{})
		sp.end()
		outs[i] = out{res: res, events: run.Trace.Len(), cpu: cpuNow() - c1, err: err}
		return struct{}{}, nil
	}, nil)
	p := passOut{wall: time.Since(t0), layer: map[string]float64{}, sweepWorkers: workers}
	root.end()
	for i, o := range outs {
		it := itemResult{key: w.grid[i].PolicyStr, cpu: o.cpu, err: o.err}
		if o.err == nil {
			it.out = Output{Counts: map[string]int64{"events": int64(o.events)}}
			for _, r := range o.res {
				m := r.Model.String()
				it.out.Counts[m+".persists"] = r.Persists
				it.out.Counts[m+".placed"] = r.Placed
				it.out.Counts[m+".critical_path"] = r.CriticalPath
				p.layer["core.persists"] += float64(r.Persists)
				p.layer["core.placed"] += float64(r.Placed)
				p.layer["core.critical_path"] += float64(r.CriticalPath)
				p.modelEvents += float64(r.Events)
			}
			p.work += float64(o.events)
			p.layer["workload.events"] += float64(o.events)
		}
		p.items = append(p.items, it)
	}
	addCacheStats(p.layer, cache)
	return p
}

func addCacheStats(layer map[string]float64, c *bench.TraceCache) {
	s := c.Stats()
	layer["bench.cache_hits"] = float64(s.Hits)
	layer["bench.cache_misses"] = float64(s.Misses)
	layer["bench.cache_evictions"] = float64(s.Evictions)
}

// ---- queue-table1 ------------------------------------------------------

// table1Shape is the paper's Table 1 grid: 20,000 inserts of 100-byte
// payloads at 1 and 8 threads. The instruction rate is not measured:
// only the simulated columns are timed and checked.
type table1Shape struct {
	inserts, payload int
	threads          []int
}

var paperTable1 = table1Shape{inserts: 20000, payload: 100, threads: []int{1, 8}}

func table1Def(shape table1Shape) workloadDef {
	return workloadDef{
		name:     "queue-table1",
		why:      "write-only persist-dense queue traffic through core; the only workload on bench's streaming Tee miss path",
		workUnit: "trace events generated and simulated",
		setup: func(seed int64) (instance, error) {
			w := &table1{}
			for _, threads := range shape.threads {
				for _, design := range []queue.Design{queue.CWL, queue.TwoLock} {
					for _, pol := range queue.Policies {
						w.grid = append(w.grid, bench.Workload{
							Design: design, Policy: pol, Threads: threads,
							Inserts: shape.inserts, PayloadLen: shape.payload, Seed: seed,
						})
					}
				}
			}
			return w, nil
		},
	}
}

type table1 struct{ grid []bench.Workload }

func table1Key(w bench.Workload) string {
	return fmt.Sprintf("%v/%v/t%d", w.Design, w.Policy, w.Threads)
}

func (w *table1) pass(tr *tracer) passOut {
	type out struct {
		r   core.Result
		cpu time.Duration
		err error
	}
	outs := make([]out, len(w.grid))
	cache := bench.NewTraceCache(bench.DefaultCacheEntries)
	root := tr.start("pass", "queue-table1", nil)
	t0 := time.Now()
	_ = sweep.Run(len(w.grid), sweep.Config{Parallel: workers}, func(i int) (struct{}, error) {
		c := w.grid[i]
		it := tr.item(root, table1Key(c), i)
		c1 := cpuNow()
		sp := it.call("bench", "SimulateCached")
		r, err := bench.SimulateCached(cache, c, core.Params{Model: bench.ModelFor(c.Policy)})
		sp.end()
		outs[i] = out{r, cpuNow() - c1, err}
		it.end()
		return struct{}{}, nil
	}, nil)
	p := passOut{wall: time.Since(t0), layer: map[string]float64{}, sweepWorkers: workers}
	root.end()
	for i, o := range outs {
		it := itemResult{key: table1Key(w.grid[i]), cpu: o.cpu, err: o.err}
		if o.err == nil {
			r := o.r
			it.out = Output{Counts: map[string]int64{
				"persists": r.Persists, "placed": r.Placed,
				"coalesced": r.Coalesced, "critical_path": r.CriticalPath,
			}}
			p.work += float64(r.Events)
			p.layer["core.persists"] += float64(r.Persists)
			p.layer["core.placed"] += float64(r.Placed)
			p.layer["core.critical_path"] += float64(r.CriticalPath)
		}
		p.items = append(p.items, it)
	}
	addCacheStats(p.layer, cache)
	return p
}

// ---- kv-check ----------------------------------------------------------

// checkLadder is kv-check's ops ladder; epoch graph edges grow
// superlinearly along it (1,024 ops: 79k edges; 2,048 ops: 676k). The
// largest rung runs first, so the peak resident set is its graph's,
// not a function of when the collector happened to reclaim the smaller
// rungs' graphs. A 3,072-op rung (2.18M epoch edges, a 5 s build) would
// make a pass three times as long.
var checkLadder = []int{2048, 1536, 1024}

// checkSeed is kv-check's trace seed at every workload seed: the
// reference traces of the graph-builder scaling table. Across seeds
// 1-6 the 3,072-op epoch graph swings from 1.17M to 2.22M edges and its
// build from 2.3 to 6.5 s, so a seeded ladder would make cpu_s measure
// the seed.
const checkSeed = defaultSeed

func kvCheckDef(shape kvShape, ladder []int) workloadDef {
	return workloadDef{
		name:     "kv-check",
		why:      "static persistency check at KV scale: graph build and persistcheck analyses over an ops ladder, no core simulation",
		workUnit: "persist nodes checked",
		setup: func(int64) (instance, error) {
			w := &kvCheck{}
			for _, ops := range ladder {
				for _, pol := range []string{"strict", "epoch", "strand"} {
					o, qp, err := shape.options(pol, ops, checkSeed)
					if err != nil {
						return nil, err
					}
					run, err := workload.BuildKV(o, nil)
					if err != nil {
						return nil, fmt.Errorf("kv-check ops %d %s: %w", ops, pol, err)
					}
					w.cases = append(w.cases, kvCheckCase{
						key: fmt.Sprintf("ops%d/%s", ops, pol), ops: ops, policy: pol,
						run: run, model: workload.ModelForPolicy("kv", qp), params: o.Params(),
					})
				}
			}
			return w, nil
		},
	}
}

type kvCheckCase struct {
	key    string
	ops    int
	policy string
	run    *workload.Run
	model  core.Model
	params []fault.Param
}

type kvCheck struct{ cases []kvCheckCase }

func noHazards(o Output) error {
	if h := o.Counts["hazards"]; h != 0 {
		return fmt.Errorf("%d persistency hazards under the target model", h)
	}
	return nil
}

func (w *kvCheck) pass(tr *tracer) passOut {
	p := passOut{layer: map[string]float64{}}
	root := tr.start("pass", "kv-check", nil)
	t0 := time.Now()
	for i, c := range w.cases {
		it := tr.item(root, c.key, i)
		c1 := cpuNow()
		sp := it.call("persistcheck", "Check")
		rep, err := persistcheck.Check(c.run.Trace, core.Params{Model: c.model}, c.run.Checks,
			persistcheck.Config{ReproParams: c.params, SiteLabel: c.run.SiteLabel})
		sp.end()
		res := itemResult{key: c.key, cpu: cpuNow() - c1, err: err, clean: noHazards, pinned: true}
		if err == nil {
			res.out = Output{Counts: map[string]int64{
				"persists": int64(rep.Persists), "hazards": int64(rep.Hazards()),
			}}
			for k, n := range rep.Counts {
				res.out.Counts["findings."+k.String()] = int64(n)
				p.layer["persistcheck.findings"] += float64(n)
			}
			p.work += float64(rep.Persists)
			p.layer["persistcheck.hazards"] += float64(rep.Hazards())
		}
		p.items = append(p.items, res)
		if tr != nil {
			// Traced only: Check builds its graph internally, so the
			// graph layer is timed by one extra build on the same trace.
			t1 := time.Now()
			sp := it.call("graph", "Build")
			g, gerr := graph.Build(c.run.Trace, core.Params{Model: c.model})
			sp.end()
			d := time.Since(t1)
			p.extra += d
			if gerr == nil {
				edges := countEdges(g)
				p.layer["graph.nodes"] += float64(g.Len())
				p.layer["graph.edges"] += float64(edges)
				if c.policy == "epoch" {
					p.layer[fmt.Sprintf("graph.epoch.ops%d.build_s", c.ops)] = d.Seconds()
					p.layer[fmt.Sprintf("graph.epoch.ops%d.edges", c.ops)] = float64(edges)
				}
			}
		}
		it.end()
	}
	p.wall = time.Since(t0)
	root.end()
	return p
}

func countEdges(g *graph.Graph) int {
	n := 0
	for _, nd := range g.Nodes {
		n += len(nd.In)
	}
	return n
}

// ---- crash-exhaustive --------------------------------------------------

// fixture is one exhaustive-checker matrix entry, by flag spelling.
type fixture struct {
	name                            string
	wl, design, policy              string
	threads, inserts, payload       int
	readFrac                        float64
	breakBar, omitComp, breakCommit bool
	integrity, sparse               bool
	broken                          bool
	// pinned fixtures run once, at the matrix's seed, at every
	// workload seed: their reachable state space swings with the seed
	// far more than any change to the checker should move it. At 2
	// shards and 8 keys a kv fixture's ranges from a single state to
	// past the state budget; queue-2lc-omit-completion's from 2,977
	// states to 24,800, which also sets the pass's peak resident set.
	pinned bool
}

// exhaustiveMatrix is the exhaustive checker's pinned validation
// matrix (internal/persistcheck/exhaustive/matrix_test.go) at the same
// sizes: 14 of its 16 clean fixtures and its 6 seeded bugs. It leaves
// out journal-strand (526k states) and kv-strand-write-heavy (1.26M),
// which took 97% of a full-matrix pass, so that a pass takes about a
// second and a run times many of them.
var exhaustiveMatrix = []fixture{
	{name: "queue-cwl-strict", wl: "queue", policy: "strict", threads: 2, inserts: 6},
	{name: "queue-cwl-epoch", wl: "queue", policy: "epoch", threads: 2, inserts: 6},
	{name: "queue-cwl-strand", wl: "queue", policy: "strand", threads: 2, inserts: 2, payload: 8},
	{name: "queue-2lc-epoch", wl: "queue", design: "2lc", policy: "epoch", threads: 2, inserts: 6},
	{name: "journal-strict", wl: "journal", policy: "strict", threads: 2, inserts: 4, sparse: true},
	{name: "journal-epoch", wl: "journal", policy: "epoch", threads: 2, inserts: 4, sparse: true},
	{name: "pstm-strict", wl: "pstm", policy: "strict", threads: 2, inserts: 6},
	{name: "pstm-epoch", wl: "pstm", policy: "epoch", threads: 2, inserts: 6},
	{name: "pstm-strand", wl: "pstm", policy: "strand", threads: 2, inserts: 6},
	{name: "queue-epoch-integrity", wl: "queue", policy: "epoch", threads: 2, inserts: 6, integrity: true},
	{name: "journal-epoch-integrity", wl: "journal", policy: "epoch", threads: 2, inserts: 4, integrity: true, sparse: true},
	{name: "kv-strict", wl: "kv", policy: "strict", threads: 2, inserts: 8, pinned: true},
	{name: "kv-epoch", wl: "kv", policy: "epoch", threads: 2, inserts: 8, pinned: true},
	{name: "kv-strand", wl: "kv", policy: "strand", threads: 2, inserts: 8, pinned: true},
	{name: "queue-break-barrier", wl: "queue", policy: "epoch", threads: 2, inserts: 6, breakBar: true, broken: true},
	{name: "queue-2lc-omit-completion", wl: "queue", design: "2lc", policy: "epoch", threads: 2, inserts: 6, omitComp: true, broken: true, pinned: true},
	{name: "journal-break-commit", wl: "journal", policy: "epoch", threads: 2, inserts: 4, breakCommit: true, sparse: true, broken: true},
	{name: "pstm-racing", wl: "pstm", policy: "racing", threads: 2, inserts: 6, broken: true},
	{name: "journal-break-commit-integrity", wl: "journal", policy: "epoch", threads: 2, inserts: 4, breakCommit: true, integrity: true, sparse: true, broken: true},
	{name: "pstm-racing-integrity", wl: "pstm", policy: "racing", threads: 2, inserts: 6, integrity: true, broken: true},
}

// exhaustiveBudget is the matrix's state budget.
const exhaustiveBudget = 1 << 21

// exhaustiveReplicas is how many seeds each unpinned fixture runs at
// in a pass. Their state counts vary a little with the seed; over
// several seeds a pass costs about the same at every workload seed.
const exhaustiveReplicas = 4

// matrixSeed is a fixture's seed in the validation matrix.
func matrixSeed(f fixture) int64 {
	if f.wl == "kv" {
		return defaultSeed
	}
	return 1
}

// fixtureSeed derives replica r's seed from the workload seed; replica
// 0 at the default seed 42 is the matrix's seed.
func fixtureSeed(f fixture, seed int64, r int) int64 {
	if f.pinned {
		return matrixSeed(f)
	}
	return matrixSeed(f) + seed - defaultSeed + int64(r)*1000
}

func replicas(f fixture) int {
	if f.pinned {
		return 1
	}
	return exhaustiveReplicas
}

type exhaustiveCase struct {
	key    string // the fixture's name, with #r for replica r > 0
	fx     fixture
	run    *workload.Run
	model  core.Model
	params []fault.Param
}

func crashExhaustiveDef(matrix []fixture) workloadDef {
	return workloadDef{
		name:     "crash-exhaustive",
		why:      "exhaustive crash-state enumeration and recovery classification on tiny traces, isolating exhaustive and recovery",
		workUnit: "distinct crash states classified",
		setup: func(seed int64) (instance, error) {
			w := &crashExhaustive{}
			for _, f := range matrix {
				for r := 0; r < replicas(f); r++ {
					c, err := buildFixture(f, fixtureSeed(f, seed, r))
					if err != nil {
						return nil, fmt.Errorf("fixture %s seed %d: %w", f.name, fixtureSeed(f, seed, r), err)
					}
					c.key = f.name
					if r > 0 {
						c.key = fmt.Sprintf("%s#%d", f.name, r)
					}
					w.cases = append(w.cases, c)
				}
			}
			return w, nil
		},
	}
}

func buildFixture(f fixture, seed int64) (exhaustiveCase, error) {
	if f.design == "" {
		f.design = "cwl"
	}
	if f.payload == 0 {
		f.payload = 16
	}
	design, err := workload.ParseDesign(f.design)
	if err != nil {
		return exhaustiveCase{}, err
	}
	policy, err := workload.ParsePolicy(f.policy)
	if err != nil {
		return exhaustiveCase{}, err
	}
	model := workload.ModelForPolicy(f.wl, policy)
	if f.wl == "kv" {
		if f.readFrac == 0 {
			f.readFrac = 0.75
		}
		shape := kvShape{shards: 2, keys: 8, threads: f.threads, readFrac: f.readFrac, zipfS: 1.1}
		o, _, err := shape.options(f.policy, f.inserts, seed)
		if err != nil {
			return exhaustiveCase{}, err
		}
		run, err := workload.BuildKV(o, nil)
		return exhaustiveCase{fx: f, run: run, model: model}, err
	}
	o := workload.Options{
		Workload: f.wl, Design: design, Policy: policy, Model: model,
		Threads: f.threads, Inserts: f.inserts, Payload: f.payload, Seed: seed,
		BreakBar: f.breakBar, OmitComp: f.omitComp, BreakCommit: f.breakCommit,
		Integrity: f.integrity, SparseBlocks: f.sparse,
		DesignStr: f.design, PolicyStr: f.policy,
	}
	run, err := workload.Build(o, nil)
	c := exhaustiveCase{fx: f, run: run, model: model}
	if f.broken {
		c.params = o.Params()
	}
	return c, err
}

type crashExhaustive struct{ cases []exhaustiveCase }

// durablyLinearizable is a clean fixture's correctness condition.
func durablyLinearizable(o Output) error {
	if o.Verdict != exhaustive.DurablyLinearizable.String() || o.Counts["detected"] != 0 || o.Counts["hazards"] != 0 {
		return fmt.Errorf("want %v with 0 detected and 0 hazards, got %s (detected %d, hazards %d)",
			exhaustive.DurablyLinearizable, o.Verdict, o.Counts["detected"], o.Counts["hazards"])
	}
	return nil
}

func (w *crashExhaustive) pass(tr *tracer) passOut {
	p := passOut{layer: map[string]float64{}}
	var meter recoveryMeter
	root := tr.start("pass", "crash-exhaustive", nil)
	t0 := time.Now()
	for i, c := range w.cases {
		it := tr.item(root, c.key, i)
		strict, checked := c.run.Recover, c.run.Checked
		if tr != nil {
			strict, checked = meter.wrap(strict, checked)
		}
		res := itemResult{key: c.key, pinned: c.fx.pinned}
		if !c.fx.broken {
			res.clean = durablyLinearizable
		}
		c1 := cpuNow()
		sp := it.call("graph", "Build")
		g, err := graph.Build(c.run.Trace, core.Params{Model: c.model})
		sp.end()
		res.cpu = cpuNow() - c1
		if err == nil {
			p.layer["graph.nodes"] += float64(g.Len())
			p.layer["graph.edges"] += float64(countEdges(g))
			c1 = cpuNow()
			sp = it.call("exhaustive", "CheckGraph")
			var r *exhaustive.Result
			r, err = exhaustive.CheckGraph(g, c.model, strict, checked, exhaustive.Config{
				Budget: exhaustiveBudget, ReproParams: c.params,
				Sweep: sweep.Config{Parallel: workers},
			})
			sp.end()
			res.cpu += cpuNow() - c1
			if err == nil {
				cuts := int64(r.Cuts)
				if r.CutsSaturated || r.Cuts > math.MaxInt64 {
					cuts = -1
				}
				res.out = Output{Verdict: r.Verdict.String(), Counts: map[string]int64{
					"states": int64(r.States), "cuts": cuts, "signatures": int64(r.Signatures),
					"detected": int64(r.Detected), "hazards": int64(r.Hazards),
				}}
				p.work += float64(r.States)
				p.layer["exhaustive.states"] += float64(r.States)
				p.layer["exhaustive.cuts"] += float64(r.Cuts)
				p.layer["exhaustive.signatures"] += float64(r.Signatures)
				p.layer["exhaustive.peak_live"] = math.Max(p.layer["exhaustive.peak_live"], float64(r.PeakLive))
				p.layer["exhaustive.subsumed"] += float64(r.Subsumed)
			}
		}
		res.err = err
		p.items = append(p.items, res)
		it.end()
	}
	p.wall = time.Since(t0)
	root.end()
	p.layer["recover.strict_calls"] = float64(meter.strictCalls.Load())
	p.layer["recover.strict_s"] = time.Duration(meter.strictNs.Load()).Seconds()
	p.layer["recover.salvage_calls"] = float64(meter.salvageCalls.Load())
	p.layer["recover.salvage_s"] = time.Duration(meter.salvageNs.Load()).Seconds()
	p.layer["recover.errors"] = float64(meter.errors.Load())
	return p
}

// workloads is the benchmark's workload set, in BENCHMARK.json order.
var workloads = []workloadDef{
	kvServeDef(serveShape),
	table1Def(paperTable1),
	kvCheckDef(serveShape, checkLadder),
	crashExhaustiveDef(exhaustiveMatrix),
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
