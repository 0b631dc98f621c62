package queue

import (
	"encoding/binary"
	"testing"

	"repro/internal/durable"
	"repro/internal/exec"
	"repro/internal/memory"
)

// fuzzBase builds a small valid queue image in the legacy or integrity
// format and lists the words FuzzRecover may overwrite: the head and
// tail pointer words (whole durable words under integrity) and every
// ring word.
func fuzzBase(integrity bool) (*memory.Image, Meta, []memory.Addr) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	q := MustNew(s, Config{DataBytes: 512, Design: CWL, Policy: PolicyEpoch, Integrity: integrity})
	for i := uint64(0); i < 3; i++ {
		q.Insert(s, MakePayload(i, 24))
	}
	meta := q.Meta()
	ptrBytes := memory.Addr(memory.WordSize)
	if integrity {
		ptrBytes = durable.WordBytes
	}
	var targets []memory.Addr
	for _, p := range []memory.Addr{meta.Head, meta.Tail} {
		for a := p; a < p+ptrBytes; a += memory.WordSize {
			targets = append(targets, a)
		}
	}
	for off := uint64(0); off < meta.DataBytes; off += memory.WordSize {
		targets = append(targets, meta.Data+memory.Addr(off))
	}
	return m.PersistentImage(), meta, targets
}

// FuzzRecover overwrites arbitrary words at the pointer and ring
// addresses of a small valid image — writes is a sequence of 9-byte
// (target selector, little-endian word) records — and requires that
// neither Recover nor RecoverSalvage panics, and that strict recovery
// succeeds exactly when salvage does with a clean report.
func FuzzRecover(f *testing.F) {
	type base struct {
		im      *memory.Image
		meta    Meta
		targets []memory.Addr
	}
	var bases [2]base
	for i, integrity := range []bool{false, true} {
		im, meta, targets := fuzzBase(integrity)
		bases[i] = base{im, meta, targets}
	}
	write := func(sel byte, v uint64) []byte {
		b := make([]byte, 9)
		b[0] = sel
		binary.LittleEndian.PutUint64(b[1:], v)
		return b
	}
	f.Add(false, []byte{})
	f.Add(true, []byte{})
	f.Add(false, write(1, 2))                              // torn tail
	f.Add(false, write(0, 72))                             // torn head
	f.Add(false, write(2, 0))                              // zero first length word
	f.Add(false, append(write(1, 64), write(0, 1<<20)...)) // implausible window
	f.Add(true, write(5, 3))                               // tail durable word CDB
	f.Fuzz(func(t *testing.T, integrity bool, writes []byte) {
		b := bases[0]
		if integrity {
			b = bases[1]
		}
		im := b.im.Clone()
		for ; len(writes) >= 9; writes = writes[9:] {
			im.WriteWord(b.targets[int(writes[0])%len(b.targets)], binary.LittleEndian.Uint64(writes[1:9]))
		}
		entries, rep, err := RecoverSalvage(im, b.meta)
		strict, serr := Recover(im, b.meta)
		if (serr == nil) != (err == nil && !rep.Detected()) {
			t.Fatalf("strict error %v disagrees with salvage (err %v, report %s)", serr, err, rep.String())
		}
		if serr == nil && len(strict) != len(entries) {
			t.Fatalf("strict recovered %d entries, salvage %d", len(strict), len(entries))
		}
	})
}
