package exhaustive

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/intervals"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/sweep"
)

// outcome is the classification of one recovery signature.
type outcome struct {
	class      Class
	strictErr  string
	checkedErr string
}

// readEv is one observed pristine-image word load.
type readEv struct {
	addr memory.Addr
	val  uint64
}

// trie memoizes recovery outcomes by read signature: each node awaits
// one image word (the next address the recovery loads after the reads
// on the path so far) and branches on its value. Recovery is a
// deterministic function of the words it reads, so two images that
// agree on a complete root-to-leaf path share the leaf's outcome
// without re-running recovery. Only the first read of each word
// enters a signature, and reads of words the recovery itself wrote
// are excluded — their values are implied by the pristine reads
// before them. (Strict and checked recovery run the same parse, so
// without the first-read rule every signature would hold each read
// twice.)
//
// The trie is a pure cache shared across sweep workers (mutex-guarded,
// recoveries run unlocked): outcomes are a function of the image, so
// results are deterministic at any worker count.
type trie struct {
	mu     sync.Mutex
	root   tnode
	leaves int
}

type tnode struct {
	known bool // addr is set (some recovery reached and expanded this node)
	addr  memory.Addr
	kids  map[uint64]*tnode
	out   *outcome
}

// lookup walks img down the trie; ok is false on the first
// unexplored branch.
func (tr *trie) lookup(img []wordVal) (*outcome, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := &tr.root
	for {
		if n.out != nil {
			return n.out, true
		}
		if !n.known {
			return nil, false
		}
		kid := n.kids[lookupWord(img, n.addr)]
		if kid == nil {
			return nil, false
		}
		n = kid
	}
}

// insert records a completed recovery's read signature and outcome,
// returning the canonical outcome for the path (an earlier concurrent
// run's, if one raced).
func (tr *trie) insert(seq []readEv, out outcome) (*outcome, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := &tr.root
	for _, ev := range seq {
		if n.out != nil {
			return n.out, nil
		}
		if !n.known {
			n.known = true
			n.addr = ev.addr
			n.kids = make(map[uint64]*tnode, 2)
		} else if n.addr != ev.addr {
			return nil, fmt.Errorf("exhaustive: nondeterministic recovery: read %#x where a previous run read %#x after an identical prefix",
				uint64(ev.addr), uint64(n.addr))
		}
		kid := n.kids[ev.val]
		if kid == nil {
			kid = &tnode{}
			n.kids[ev.val] = kid
		}
		n = kid
	}
	if n.known {
		return nil, fmt.Errorf("exhaustive: nondeterministic recovery: one run finished where another kept reading %#x", uint64(n.addr))
	}
	if n.out == nil {
		o := out
		n.out = &o
		tr.leaves++
	}
	return n.out, nil
}

// classify returns img's outcome, running the recovery entry points
// only on a signature-cache miss.
func (tr *trie) classify(img []wordVal, strict observer.RecoverFunc, checked observer.CheckedRecoverFunc) (*outcome, error) {
	if o, ok := tr.lookup(img); ok {
		return o, nil
	}
	out, seq := execClassify(img, strict, checked)
	return tr.insert(seq, out)
}

// execClassify materializes img, runs strict then checked recovery
// with read recording, and classifies the state.
func execClassify(img []wordVal, strict observer.RecoverFunc, checked observer.CheckedRecoverFunc) (outcome, []readEv) {
	im := memory.NewImage()
	for _, wv := range img {
		im.WriteWord(wv.addr, wv.val)
	}
	// Words already read, or written by the recovery itself (salvage
	// repairs): their values are implied by earlier pristine reads, so
	// only a word's first pristine read enters the signature.
	known := intervals.NewSet[memory.Addr]()
	var seq []readEv
	im.Observe(func(a memory.Addr, v uint64) {
		if !known.Contains(a) {
			known.Insert(a, a+memory.WordSize)
			seq = append(seq, readEv{addr: a, val: v})
		}
	}, func(a memory.Addr) {
		known.Insert(a, a+memory.WordSize)
	})
	sErr := strict(im)
	_, cErr := checked(im)
	im.Observe(nil, nil)

	out := outcome{}
	switch {
	case cErr != nil:
		out.class = ClassHazard
	case sErr != nil:
		out.class = ClassDetected
	default:
		out.class = ClassRecovered
	}
	if sErr != nil {
		out.strictErr = sErr.Error()
	}
	if cErr != nil {
		out.checkedErr = cErr.Error()
	}
	return out, seq
}

// classifyAll classifies every distinct reachable image through the
// shared trie, tallies classes in discovery order, and minimizes the
// first hazardous image's representative cut.
func classifyAll(g *graph.Graph, sp *space, strict observer.RecoverFunc, checked observer.CheckedRecoverFunc, cfg Config, res *Result) error {
	tr := &trie{}
	outs := make([]*outcome, len(sp.finals))
	scfg := cfg.Sweep
	scfg.Name = "exhaustive-classify"
	err := sweep.Run(len(sp.finals), scfg, func(i int) (*outcome, error) {
		return tr.classify(sp.finals[i].img, strict, checked)
	}, func(i int, o *outcome) error {
		outs[i] = o
		return nil
	})
	if err != nil {
		return err
	}
	firstHazard := -1
	for i, o := range outs {
		switch o.class {
		case ClassRecovered:
			res.Recovered++
		case ClassDetected:
			res.Detected++
		case ClassHazard:
			res.Hazards++
			if firstHazard < 0 {
				firstHazard = i
			}
		}
	}
	res.Signatures = tr.leaves
	if firstHazard >= 0 {
		ce, err := minimize(g, sp.finals[firstHazard], outs[firstHazard], tr, strict, checked, cfg)
		if err != nil {
			return err
		}
		res.Counterexample = ce
	}
	return nil
}

// minimize greedily shrinks a hazardous cut: walking included nodes
// from the latest down, it drops each node (with its dependents, to
// keep the cut downward-closed) whenever the resulting state still
// classifies as a hazard.
func minimize(g *graph.Graph, f *final, hazard *outcome, tr *trie, strict observer.RecoverFunc, checked observer.CheckedRecoverFunc, cfg Config) (*Counterexample, error) {
	n := g.Len()
	cut := cutOf(f.dec, n)
	orig := cut.Size()
	cur := hazard
	budget := cfg.minimizeBudget()
	for i := n - 1; i >= 0 && budget > 0; i-- {
		if !cut.Included[i] {
			continue
		}
		cand := graph.Cut{Included: append([]bool(nil), cut.Included...)}
		cand.Included[i] = false
		// Forward-propagate the exclusion to keep the cut
		// downward-closed.
		for j := i + 1; j < n; j++ {
			if !cand.Included[j] {
				continue
			}
			for _, e := range g.Nodes[j].In {
				if !cand.Included[e.From] {
					cand.Included[j] = false
					break
				}
			}
		}
		budget--
		o, err := tr.classify(imgOfCut(g, cand), strict, checked)
		if err != nil {
			return nil, err
		}
		if o.class == ClassHazard {
			cut, cur = cand, o
		}
	}
	ce := &Counterexample{
		Cut:           cut,
		Included:      cut.Size(),
		MinimizedFrom: orig,
		StrictErr:     cur.strictErr,
		CheckedErr:    cur.checkedErr,
	}
	if len(cfg.ReproParams) > 0 {
		s := fault.Scenario{Params: cfg.ReproParams, Cut: cut}
		ce.Repro = s.Repro()
	}
	return ce, nil
}
