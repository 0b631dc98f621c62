package journal

import (
	"repro/internal/durable"
	"repro/internal/memory"
)

// Recovery: rebuilding the metadata table from a post-crash image by
// redoing all journal records between the checkpoint and the
// persistent CommittedHead. Everything below CommittedHead must parse
// and verify — the commit point only advances after its records
// persisted — so any invalid record in that window is a recovery
// correctness violation. RecoverSalvage (salvage.go) is the one parse
// of the format; Recover is its strict policy.

// State is the recovered store.
type State struct {
	// Table holds the recovered blocks.
	Table [][]byte
	// Records counts redo records replayed.
	Records int
	// Txns counts distinct transactions replayed.
	Txns int
}

// Block returns block i's recovered content.
func (s *State) Block(i int) []byte { return s.Table[i] }

// Recover rebuilds the table from a post-crash image. It returns a
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

// shadowMismatch reports whether table block i's in-place content
// fails its shadow checksum. All-zero content with a zero shadow word
// is the never-written initial state and passes.
func shadowMismatch(im *memory.Image, meta Meta, i int) bool {
	addr := meta.Table + memory.Addr(i*BlockBytes)
	b := make([]byte, BlockBytes)
	im.ReadBytes(addr, b)
	shadow := im.ReadWord(meta.BlockCRC + memory.Addr(i*8))
	if shadow == 0 {
		for _, c := range b {
			if c != 0 {
				return true
			}
		}
		return false
	}
	return shadow != durable.Checksum(uint64(addr), b)
}
