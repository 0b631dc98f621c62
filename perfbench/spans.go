package main

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/telemetry"
)

// tracer records one span per layer call of the traced pass, in
// memory, on top of telemetry.SpanTracer so the spans export as the
// same Chrome trace-event JSON as the CLIs' harness traces. Each span
// carries its own id, its parent's id and the workload-item index as
// arguments. A nil *tracer records nothing: the untraced pass runs the
// same code with every span a no-op.
type tracer struct {
	st    *telemetry.SpanTracer
	next  atomic.Int64
	lanes chan int // free Perfetto lanes, one per concurrently running item
}

func newTracer(workers int) *tracer {
	t := &tracer{st: telemetry.NewSpanTracer(nil), lanes: make(chan int, workers)}
	for w := 0; w < workers; w++ {
		t.lanes <- w
	}
	return t
}

type span struct {
	s       *telemetry.Span
	t       *tracer
	id      int64
	lane    int
	item    int
	ownLane bool // an item span returns its lane when it ends
}

// start opens a span of category cat (the layer) for call name, as a
// child of parent (nil for a root span).
func (t *tracer) start(cat, name string, parent *span) *span {
	if t == nil {
		return nil
	}
	sp := &span{t: t, id: t.next.Add(1), lane: -1, item: -1}
	var pid int64
	if parent != nil {
		sp.lane, sp.item, pid = parent.lane, parent.item, parent.id
	}
	sp.s = t.st.Start(cat, name).Worker(sp.lane).Arg("span", sp.id).Arg("parent", pid)
	return sp
}

// item opens the span of workload item i on a free lane; its end
// returns the lane.
func (t *tracer) item(parent *span, key string, i int) *span {
	if t == nil {
		return nil
	}
	sp := t.start("item", key, parent)
	sp.lane, sp.item, sp.ownLane = <-t.lanes, i, true
	sp.s.Worker(sp.lane).Arg("item", i)
	return sp
}

// call opens a layer-call span under parent.
func (sp *span) call(cat, name string) *span {
	if sp == nil {
		return nil
	}
	c := sp.t.start(cat, name, sp)
	c.s.Arg("item", sp.item)
	return c
}

func (sp *span) end() {
	if sp == nil {
		return
	}
	sp.s.End()
	if sp.ownLane {
		sp.t.lanes <- sp.lane
	}
}

// layerTotals sums span durations per category (layer), leaving out
// the benchmark's own "pass" and "item" spans.
func (t *tracer) layerTotals() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, r := range t.st.Spans() {
		if isLayer(r.Cat) {
			out[r.Cat] += r.Dur
		}
	}
	return out
}

// catTotal sums the durations of the spans of one category.
func (t *tracer) catTotal(cat string) time.Duration {
	var d time.Duration
	for _, r := range t.st.Spans() {
		if r.Cat == cat {
			d += r.Dur
		}
	}
	return d
}

func isLayer(cat string) bool { return cat != "pass" && cat != "item" }

// coverage is the share of the root pass span that layer spans cover:
// the union of their intervals (they overlap across workers) over the
// pass's wall time.
func (t *tracer) coverage() float64 {
	type iv struct{ lo, hi time.Duration }
	var pass iv
	var ivs []iv
	for _, r := range t.st.Spans() {
		switch {
		case r.Cat == "pass":
			pass = iv{r.Start, r.Start + r.Dur}
		case isLayer(r.Cat):
			ivs = append(ivs, iv{r.Start, r.Start + r.Dur})
		}
	}
	if pass.hi <= pass.lo {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, reach time.Duration
	reach = pass.lo
	for _, v := range ivs {
		lo, hi := max(v.lo, reach), min(v.hi, pass.hi)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return float64(covered) / float64(pass.hi-pass.lo)
}

// recoveryMeter wraps a workload's recovery closures to count calls,
// time and errors — the recovery layer's numbers, measured from outside
// the checker. Safe for the checker's concurrent classification.
type recoveryMeter struct {
	strictCalls, strictNs   atomic.Int64
	salvageCalls, salvageNs atomic.Int64
	errors                  atomic.Int64
}

func (m *recoveryMeter) wrap(strict observer.RecoverFunc, checked observer.CheckedRecoverFunc) (observer.RecoverFunc, observer.CheckedRecoverFunc) {
	s := func(im *memory.Image) error {
		t0 := time.Now()
		err := strict(im)
		m.strictNs.Add(int64(time.Since(t0)))
		m.strictCalls.Add(1)
		if err != nil {
			m.errors.Add(1)
		}
		return err
	}
	c := func(im *memory.Image) (fault.RecoveryReport, error) {
		t0 := time.Now()
		rep, err := checked(im)
		m.salvageNs.Add(int64(time.Since(t0)))
		m.salvageCalls.Add(1)
		if err != nil {
			m.errors.Add(1)
		}
		return rep, err
	}
	return s, c
}
