package pstm

import (
	"repro/internal/durable"
	"repro/internal/memory"
)

// Recovery: if the armed transaction id is not sealed, roll back its
// valid undo records. Records are self-validating; a record whose
// checksum fails marks the arming frontier (nothing at or beyond it
// reached the in-place stage, because each in-place store is ordered
// after its record by a barrier). RecoverSalvage (salvage.go) is the
// one parse of the format; Recover is its strict policy.

// State is the recovered heap.
type State struct {
	// Words holds the recovered data.
	Words []uint64
	// RolledBack reports whether an unsealed transaction was undone.
	RolledBack bool
	// Undone counts rolled-back records.
	Undone int
}

// Recover rebuilds the heap from a post-crash image. It returns a
// *fault.CorruptionError if salvage recovery detects any corruption.
func Recover(im *memory.Image, meta Meta) (*State, error) {
	st, rep, err := RecoverSalvage(im, meta)
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// shadowMismatch reports whether data word i fails its shadow
// checksum. A zero word with a zero shadow is the never-written
// initial state and passes.
func shadowMismatch(im *memory.Image, meta Meta, i int) bool {
	a := meta.Data + memory.Addr(i*8)
	v := im.ReadWord(a)
	shadow := im.ReadWord(meta.ShadowCRC + memory.Addr(i*8))
	if shadow == 0 && v == 0 {
		return false
	}
	return shadow != durable.ChecksumWord(uint64(a), v)
}
