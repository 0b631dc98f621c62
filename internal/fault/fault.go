// Package fault injects device-level failures into the NVRAM images
// the recovery observer materializes.
//
// The paper's recovery observer (§4) models failure as a *clean*
// consistent cut of the persist-order DAG: every persist either fully
// reached media or did not happen at all. Real NVRAM also fails dirty
// (Ben-David et al., "Delay-Free Concurrency on Faulty Persistent
// Memory"): atomic persists tear, issued persists are silently dropped,
// writes fail transiently and are retried, and media cells rot. This
// package extends the observer's state space with exactly those
// perturbations, deterministically (every choice is driven by an
// injected *rand.Rand or spelled out in a replayable Plan):
//
//   - Torn: an atomic persist applied partially, at sub-word byte
//     granularity. Tearing models a write interrupted by the crash, so
//     it is only meaningful at the *frontier* of the cut (a persist
//     with no persisted dependents); Materialize enforces this by
//     excluding the dependents of a torn persist.
//   - Drop: an issued persist that never reached media. Also only
//     legal at the frontier — dropping an interior persist would
//     fabricate a device state the ordering constraints forbid — and
//     Materialize likewise excludes dependents, so the perturbed state
//     is always a reachable device state with one write in flight.
//   - Retry: a transient write failure masked by the device's bounded
//     retry/backoff loop. The data eventually reaches media, so the
//     image is unchanged; the cost is charged into the internal/nvram
//     timing model as extra latency and wear (see nvram.FaultProfile).
//   - FlipDetected: a media bit error the device's ECC detects but
//     cannot correct. The flipped data is returned to readers and the
//     word is poisoned (memory.Image.Poison); recovery must quarantine.
//   - FlipSilent: a media bit error the ECC misses. Only software
//     checksums can catch it; a silent flip that lands where no
//     checksum covers is the one documented class of undetectable
//     corruption, which campaigns report as a detection-rate statistic
//     rather than hide.
//
// A Plan plus a cut plus the deterministic trace seed is a complete,
// replayable failure scenario; Scenario (repro.go) round-trips all
// three through a one-line repro string.
package fault

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/memory"
)

// Kind enumerates the device-fault taxonomy.
type Kind uint8

const (
	// Torn applies a frontier persist partially (Mask selects bytes).
	Torn Kind = iota
	// Drop removes a frontier persist from the materialized state.
	Drop
	// Retry makes a persist fail transiently Attempts times before
	// succeeding; timing/wear accounting only.
	Retry
	// FlipDetected flips one media bit and poisons the word
	// (detectable-uncorrectable error).
	FlipDetected
	// FlipSilent flips one media bit with no device-side indication.
	FlipSilent
)

// String names the kind (also the repro-string mnemonic).
func (k Kind) String() string {
	switch k {
	case Torn:
		return "torn"
	case Drop:
		return "drop"
	case Retry:
		return "retry"
	case FlipDetected:
		return "flipd"
	case FlipSilent:
		return "flips"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Kinds lists the fault taxonomy.
var Kinds = []Kind{Torn, Drop, Retry, FlipDetected, FlipSilent}

// Fault is one injected device fault.
type Fault struct {
	Kind Kind
	// Node is the targeted persist for Torn, Drop, and Retry.
	Node graph.NodeID
	// Mask selects which bytes of a Torn persist reached media: bit i
	// set means byte i of the write was applied. Bits beyond the
	// write's size are ignored; a zero mask means nothing landed.
	Mask uint8
	// Attempts is the number of failed write attempts for Retry.
	Attempts int
	// Addr is the flipped byte's address for FlipDetected/FlipSilent.
	Addr memory.Addr
	// Bit is the flipped bit (0..7) within the byte at Addr.
	Bit uint8
}

// String renders the fault in repro-string form.
func (f Fault) String() string {
	switch f.Kind {
	case Torn:
		return fmt.Sprintf("torn@%d/%02x", f.Node, f.Mask)
	case Drop:
		return fmt.Sprintf("drop@%d", f.Node)
	case Retry:
		return fmt.Sprintf("retry@%dx%d", f.Node, f.Attempts)
	case FlipDetected, FlipSilent:
		return fmt.Sprintf("%s@%x.%d", f.Kind, uint64(f.Addr), f.Bit)
	default:
		return f.Kind.String()
	}
}

// Plan is a deterministic set of faults applied to one materialized
// cut. The zero Plan injects nothing.
type Plan struct {
	Faults []Fault
}

// Len returns the number of faults.
func (p Plan) Len() int { return len(p.Faults) }

// HasSilentFlip reports whether the plan injects any silent bit error —
// the one fault class software checksums may legitimately miss.
func (p Plan) HasSilentFlip() bool {
	for _, f := range p.Faults {
		if f.Kind == FlipSilent {
			return true
		}
	}
	return false
}

// Without returns a copy of the plan with fault i removed (the
// minimizer's step).
func (p Plan) Without(i int) Plan {
	out := Plan{Faults: make([]Fault, 0, len(p.Faults)-1)}
	out.Faults = append(out.Faults, p.Faults[:i]...)
	out.Faults = append(out.Faults, p.Faults[i+1:]...)
	return out
}

// RetryProfile extracts the transient-failure attempts per node, the
// input to nvram's retry/backoff accounting.
func (p Plan) RetryProfile() map[graph.NodeID]int {
	var out map[graph.NodeID]int
	for _, f := range p.Faults {
		if f.Kind != Retry || f.Attempts <= 0 {
			continue
		}
		if out == nil {
			out = make(map[graph.NodeID]int)
		}
		out[f.Node] += f.Attempts
	}
	return out
}

// String renders the plan as the repro string's fault section.
func (p Plan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// RecoveryReport is the structured outcome of a hardened (salvaging)
// recovery pass: what was recovered intact, what was detected as
// corrupt and quarantined, and what had to be skipped unattributed.
// A fault-tolerant recovery routine degrades gracefully — it returns
// the intact data plus a report — instead of returning silently wrong
// data or failing outright.
type RecoveryReport struct {
	// Recovered counts intact units (entries, records, rollback
	// records) recovered.
	Recovered int
	// Quarantined counts units detected as corrupt (checksum or seal
	// failure, implausible framing, poisoned media) and withheld.
	Quarantined int
	// Dropped counts units skipped without attribution — slots lost
	// while resynchronizing past a corrupt region. For variable-size
	// formats it counts alignment slots, an upper bound on lost
	// entries.
	Dropped int
	// PoisonedWords counts detectable-uncorrectable media errors
	// encountered while scanning.
	PoisonedWords int
	// HeaderQuarantined reports that a top-level pointer (head/tail,
	// committed/checkpoint, armed/done) was implausible or poisoned and
	// the scan ran in degraded mode.
	HeaderQuarantined bool
	// CRCDetected counts CRC validation failures (frame or shadow
	// checksums, durable-word copies) caught by the integrity layer.
	CRCDetected int
	// CDBDetected counts corruption-detecting booleans read as neither
	// constant — direct evidence of metadata corruption.
	CDBDetected int
	// DiscardedRecords counts records past the commit frontier that
	// recovery deliberately discarded (uncommitted or torn tails). A
	// nonzero count is *normal* on a mid-operation crash cut and is NOT
	// corruption evidence; it is reported for visibility only.
	DiscardedRecords int
	// BytesScanned is the number of NVRAM bytes examined.
	BytesScanned uint64
	// Notes carries short human-readable reasons (capped).
	Notes []string
}

// Detected reports whether the recovery saw any evidence of corruption
// — quarantine/drop/poison from the salvage layer, or a CRC/CDB hit
// from the integrity layer. DiscardedRecords is deliberately excluded:
// discarding an uncommitted tail is the expected outcome of a clean
// crash cut, not corruption. A clean report plus wrong recovered data
// is a *silent* corruption — the class fault campaigns exist to rule
// out; a report where Detected() is true means the corruption was
// caught (detected-and-recovered), never silently trusted.
func (r *RecoveryReport) Detected() bool {
	return r.Quarantined > 0 || r.Dropped > 0 || r.PoisonedWords > 0 || r.HeaderQuarantined ||
		r.DetectedByIntegrity()
}

// DetectedByIntegrity reports whether the integrity layer (CRC frames,
// shadow checksums, CDBs) specifically caught corruption, as opposed
// to the coarser salvage heuristics.
func (r *RecoveryReport) DetectedByIntegrity() bool {
	return r.CRCDetected > 0 || r.CDBDetected > 0
}

// CorruptionError is a recovery-correctness violation: the image holds
// evidence of corruption, so strict recovery refuses it. Reason is the
// first note of the salvage report that detected it.
type CorruptionError struct {
	Reason string
}

// Error implements error.
func (e *CorruptionError) Error() string { return "corrupt: " + e.Reason }

// IsCorruption reports whether err is (or wraps) a CorruptionError.
func IsCorruption(err error) bool {
	var ce *CorruptionError
	return errors.As(err, &ce)
}

// Err is the strict-recovery policy over a salvage report: nil when
// the report is clean (Detected is false), otherwise a CorruptionError
// naming the first detection.
func (r *RecoveryReport) Err() error {
	if !r.Detected() {
		return nil
	}
	if len(r.Notes) == 0 {
		return &CorruptionError{Reason: r.String()}
	}
	return &CorruptionError{Reason: r.Notes[0]}
}

// maxNotes bounds the notes a report accumulates.
const maxNotes = 8

// Note appends a formatted note, keeping at most maxNotes.
func (r *RecoveryReport) Note(format string, args ...interface{}) {
	if len(r.Notes) < maxNotes {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// Merge accumulates another report into r (campaign aggregation).
func (r *RecoveryReport) Merge(o RecoveryReport) {
	r.Recovered += o.Recovered
	r.Quarantined += o.Quarantined
	r.Dropped += o.Dropped
	r.PoisonedWords += o.PoisonedWords
	r.HeaderQuarantined = r.HeaderQuarantined || o.HeaderQuarantined
	r.CRCDetected += o.CRCDetected
	r.CDBDetected += o.CDBDetected
	r.DiscardedRecords += o.DiscardedRecords
	r.BytesScanned += o.BytesScanned
	for _, n := range o.Notes {
		r.Note("%s", n)
	}
}

// String summarizes the report for logs.
func (r *RecoveryReport) String() string {
	s := fmt.Sprintf("recovered %d, quarantined %d, dropped %d, poisoned %d, %d bytes scanned",
		r.Recovered, r.Quarantined, r.Dropped, r.PoisonedWords, r.BytesScanned)
	if r.DetectedByIntegrity() {
		s += fmt.Sprintf(", integrity-detected (crc %d, cdb %d)", r.CRCDetected, r.CDBDetected)
	}
	if r.DiscardedRecords > 0 {
		s += fmt.Sprintf(", discarded %d uncommitted", r.DiscardedRecords)
	}
	if r.HeaderQuarantined {
		s += ", HEADER QUARANTINED"
	}
	if len(r.Notes) > 0 {
		s += " (" + strings.Join(r.Notes, "; ") + ")"
	}
	return s
}
