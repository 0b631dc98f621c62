package queue

import (
	"repro/internal/memory"
)

// Recovery: reading the queue back out of a post-crash NVRAM image.
//
// The rule is the paper's (§6): an entry is valid iff the head pointer
// encompasses its slot. Every entry between tail and head must
// therefore be fully intact; anything else means the persistency
// model's ordering constraints were violated (or mis-annotated), and
// Recover reports it as corruption. RecoverSalvage (salvage.go) is the
// one parse of the format; Recover is its strict policy.

// Entry is one recovered queue entry.
type Entry struct {
	// Offset is the entry's monotonic byte offset in the queue.
	Offset uint64
	// Payload is the entry body.
	Payload []byte
}

// Recover parses the live entries ([tail, head)) out of a post-crash
// image. It returns the recovered entries in order, or a
// *fault.CorruptionError if salvage recovery detects any corruption.
func Recover(im *memory.Image, meta Meta) ([]Entry, error) {
	entries, rep, err := RecoverSalvage(im, meta)
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}
