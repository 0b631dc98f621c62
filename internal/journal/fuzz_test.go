package journal

import (
	"encoding/binary"
	"testing"

	"repro/internal/durable"
	"repro/internal/exec"
	"repro/internal/memory"
)

// fuzzBase builds a small valid journal image in the legacy or
// integrity format and lists the words FuzzRecover may overwrite: the
// committed-head and checkpoint words (whole durable words under
// integrity) and every ring word.
func fuzzBase(integrity bool) (*memory.Image, Meta, []memory.Addr) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	st := MustNew(s, Config{Blocks: 4, JournalBytes: 1 << 10, Policy: PolicyEpoch, Integrity: integrity})
	for tag := uint64(1); tag <= 3; tag++ {
		st.Update(s, groupWrites(int(tag%2), tag))
	}
	meta := st.Meta()
	ptrBytes := memory.Addr(memory.WordSize)
	if integrity {
		ptrBytes = durable.WordBytes
	}
	var targets []memory.Addr
	for _, p := range []memory.Addr{meta.CommittedHead, meta.Checkpoint} {
		for a := p; a < p+ptrBytes; a += memory.WordSize {
			targets = append(targets, a)
		}
	}
	for off := uint64(0); off < meta.JournalBytes; off += memory.WordSize {
		targets = append(targets, meta.Journal+memory.Addr(off))
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
	f.Add(false, write(1, 4))                              // torn checkpoint
	f.Add(false, write(0, 12))                             // torn committed head
	f.Add(false, write(2, wrapKind))                       // wrap marker where a record fits
	f.Add(false, append(write(1, 64), write(0, 1<<20)...)) // implausible window
	f.Add(true, write(5, 3))                               // checkpoint durable word CDB
	f.Fuzz(func(t *testing.T, integrity bool, writes []byte) {
		b := bases[0]
		if integrity {
			b = bases[1]
		}
		im := b.im.Clone()
		for ; len(writes) >= 9; writes = writes[9:] {
			im.WriteWord(b.targets[int(writes[0])%len(b.targets)], binary.LittleEndian.Uint64(writes[1:9]))
		}
		soft, rep, err := RecoverSalvage(im, b.meta)
		strict, serr := Recover(im, b.meta)
		if (serr == nil) != (err == nil && !rep.Detected()) {
			t.Fatalf("strict error %v disagrees with salvage (err %v, report %s)", serr, err, rep.String())
		}
		if serr == nil && (strict.Records != soft.Records || strict.Txns != soft.Txns) {
			t.Fatalf("strict %+v vs salvage %+v", strict, soft)
		}
	})
}
