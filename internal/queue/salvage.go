package queue

import (
	"fmt"

	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/memory"
)

// Salvage recovery: the one parse of the queue format.
//
// RecoverSalvage degrades gracefully rather than failing: it recovers
// every entry it can prove intact (checksums bound to the monotonic
// offset), quarantines entries it can prove corrupt, resynchronizes on
// the 64-byte slot grid past corrupt regions, and reports everything in
// a fault.RecoveryReport. Poisoned words (detectable-uncorrectable
// media errors) are never trusted. Every detection leaves a note naming
// its reason; strict Recover (recover.go) is this parse plus the policy
// that any detection is a recovery-correctness violation.

// entry-parse status codes for salvageParse.
const (
	entOK = iota
	entWrap
	entBad
)

// slot is salvageParse's verdict on one ring slot.
type slot struct {
	status int
	// entry and next are set for entOK; next alone for entWrap.
	entry Entry
	next  uint64
	// why names an entBad failure; poisoned reports that it involved
	// poisoned media and crcFail an integrity-layer CRC mismatch.
	why      string
	poisoned bool
	crcFail  bool
}

// salvageParse examines the slot at monotonic offset pos. When
// trustedHead is true, head bounds the entry's end. On entBad the
// caller quarantines and resynchronizes.
func salvageParse(im *memory.Image, meta Meta, pos, head uint64, trustedHead bool) slot {
	idx := pos % meta.DataBytes
	base := meta.Data + memory.Addr(idx)
	if im.Poisoned(base) {
		return slot{status: entBad, why: "poisoned length word", poisoned: true}
	}
	length := im.ReadWord(base)
	if length == wrapMarker {
		return slot{status: entWrap, next: pos + (meta.DataBytes - idx)}
	}
	if length == 0 || length > MaxPayload {
		return slot{status: entBad, why: fmt.Sprintf("implausible length %d", length)}
	}
	size := SlotBytes(int(length))
	if idx+size > meta.DataBytes {
		return slot{status: entBad, why: "entry straddles wrap point"}
	}
	if trustedHead && pos+size > head {
		return slot{status: entBad, why: "entry extends past head"}
	}
	if im.RangePoisoned(base, int(size)) {
		return slot{status: entBad, why: "poisoned entry", poisoned: true}
	}
	if meta.Integrity {
		payload, ok := durable.OpenFrame(im, base, pos, MaxPayload)
		if !ok {
			return slot{status: entBad, why: "frame CRC mismatch", crcFail: true}
		}
		return slot{status: entOK, entry: Entry{Offset: pos, Payload: payload}, next: pos + size}
	}
	payload := make([]byte, length)
	im.ReadBytes(base+headerBytes, payload)
	if im.ReadWord(base+memory.Addr(checksumOffset(int(length)))) != Checksum(pos, payload) {
		return slot{status: entBad, why: "checksum mismatch"}
	}
	return slot{status: entOK, entry: Entry{Offset: pos, Payload: payload}, next: pos + size}
}

// RecoverSalvage parses as much of the queue as the image supports,
// returning the intact entries in order plus a report of what was
// quarantined. The error is non-nil only for unusable metadata;
// corruption — even of the head/tail words themselves — degrades the
// scan instead of failing it.
func RecoverSalvage(im *memory.Image, meta Meta) ([]Entry, fault.RecoveryReport, error) {
	var rep fault.RecoveryReport
	if meta.DataBytes == 0 || meta.DataBytes%SlotAlign != 0 {
		return nil, rep, fmt.Errorf("queue: bad recovery metadata: data bytes %d", meta.DataBytes)
	}
	var head, tail uint64
	var headUsable, tailUsable bool
	if meta.Integrity {
		// Durable-word pointers: CRC-validated copies behind a CDB.
		// Detections land in the report; a fallback read still anchors
		// the scan (the older value is safe — head/tail only grow).
		hr := durable.ReadWord(im, meta.Head)
		tr := durable.ReadWord(im, meta.Tail)
		hr.Absorb(&rep, "head")
		tr.Absorb(&rep, "tail")
		head, tail = hr.Val, tr.Val
		headUsable = hr.OK && head%SlotAlign == 0
		tailUsable = tr.OK && tail%SlotAlign == 0
	} else {
		head = im.ReadWord(meta.Head)
		tail = im.ReadWord(meta.Tail)
		// Both pointers only ever hold slot-aligned offsets; a torn persist
		// of either word shows up as misalignment or implausible distance.
		headUsable = !im.Poisoned(meta.Head) && head%SlotAlign == 0
		tailUsable = !im.Poisoned(meta.Tail) && tail%SlotAlign == 0
		if im.Poisoned(meta.Head) {
			rep.PoisonedWords++
		}
		if im.Poisoned(meta.Tail) {
			rep.PoisonedWords++
		}
	}
	trusted := headUsable && tailUsable
	if !trusted {
		rep.Note("head/tail unusable (poisoned or torn)")
	} else if tail > head || head-tail > meta.DataBytes {
		trusted = false
		rep.Note("implausible head %d / tail %d", head, tail)
	}
	if !trusted {
		rep.HeaderQuarantined = true
	}
	if !tailUsable {
		// Without even a tail there is no scan anchor: any offset guess
		// would misbind every offset-keyed checksum. Recover nothing,
		// loudly.
		rep.Note("no scan anchor; entries unrecoverable")
		return nil, rep, nil
	}

	// With untrusted pointers, scan from tail while entries validate —
	// checksums are bound to the monotonic offset, so stale ring eras
	// cannot masquerade — and stop at the first invalid slot (without a
	// head there is no telling live data from never-written space).
	limit := head
	if !trusted {
		limit = tail + meta.DataBytes
	}

	var out []Entry
	pos := tail
	for pos < limit {
		sl := salvageParse(im, meta, pos, head, trusted)
		switch sl.status {
		case entOK:
			out = append(out, sl.entry)
			rep.Recovered++
			rep.BytesScanned += sl.next - pos
			pos = sl.next
		case entWrap:
			rep.BytesScanned += memory.WordSize
			pos = sl.next
		default: // entBad
			if sl.poisoned {
				rep.PoisonedWords++
			}
			if sl.crcFail {
				rep.CRCDetected++
			}
			rep.BytesScanned += memory.WordSize
			if !trusted {
				// End of provable data. A nonzero length word here is a
				// record the scan deliberately leaves behind (torn tail or
				// unreachable era) — visible, not corruption by itself.
				if im.ReadWord(meta.Data+memory.Addr(pos%meta.DataBytes)) != 0 {
					rep.DiscardedRecords++
				}
				return out, rep, nil
			}
			rep.Quarantined++
			// Resynchronize on the slot grid: entries and wrap markers
			// always start on SlotAlign boundaries.
			resynced := false
			for q := pos + SlotAlign; q < head; q += SlotAlign {
				rep.BytesScanned += memory.WordSize
				if salvageParse(im, meta, q, head, trusted).status != entBad {
					rep.Dropped += int((q-pos)/SlotAlign) - 1
					rep.Note("entry at offset %d: %s; resynced at offset %d", pos, sl.why, q)
					pos, resynced = q, true
					break
				}
			}
			if !resynced {
				if lost := int((head-pos)/SlotAlign) - 1; lost > 0 {
					rep.Dropped += lost
				}
				rep.Note("entry at offset %d: %s; no resync before head", pos, sl.why)
				return out, rep, nil
			}
		}
	}
	return out, rep, nil
}
