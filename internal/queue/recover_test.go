package queue

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/memory"
)

// buildImage runs a few inserts and returns the final image + meta.
func buildImage(t *testing.T) (*memory.Image, Meta) {
	t.Helper()
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	q := MustNew(s, Config{DataBytes: 1 << 14, Design: CWL, Policy: PolicyEpoch})
	for i := uint64(0); i < 5; i++ {
		q.Insert(s, MakePayload(i, 100))
	}
	return m.PersistentImage(), q.Meta()
}

// wantCorruption fails unless err is a recovery corruption whose text
// names reason.
func wantCorruption(t *testing.T, err error, reason string) {
	t.Helper()
	if !fault.IsCorruption(err) {
		t.Fatalf("want corruption (%s), got %v", reason, err)
	}
	if !strings.Contains(err.Error(), reason) {
		t.Fatalf("corruption %q does not name its reason %q", err, reason)
	}
}

func TestRecoverDetectsBadLength(t *testing.T) {
	im, meta := buildImage(t)
	// Zero out the third entry's length word.
	im.WriteWord(meta.Data+memory.Addr(2*SlotBytes(100)), 0)
	_, err := Recover(im, meta)
	wantCorruption(t, err, "implausible length 0")
}

func TestRecoverDetectsChecksumMismatch(t *testing.T) {
	im, meta := buildImage(t)
	// Flip a payload byte of the second entry.
	a := meta.Data + memory.Addr(SlotBytes(100)) + headerBytes + 10
	var b [1]byte
	im.ReadBytes(a, b[:])
	b[0] ^= 0xff
	im.WriteBytes(a, b[:])
	_, err := Recover(im, meta)
	wantCorruption(t, err, "checksum mismatch")
}

func TestRecoverDetectsTailBeyondHead(t *testing.T) {
	im, meta := buildImage(t)
	im.WriteWord(meta.Tail, im.ReadWord(meta.Head)+64)
	_, err := Recover(im, meta)
	wantCorruption(t, err, "implausible head")
}

func TestRecoverDetectsOversizedLiveRegion(t *testing.T) {
	im, meta := buildImage(t)
	im.WriteWord(meta.Head, meta.DataBytes*2)
	_, err := Recover(im, meta)
	wantCorruption(t, err, "implausible head")
}

func TestRecoverDetectsEntryPastHead(t *testing.T) {
	im, meta := buildImage(t)
	// Head slot-aligned but in the middle of the second entry.
	im.WriteWord(meta.Head, SlotBytes(100)+SlotAlign)
	_, err := Recover(im, meta)
	wantCorruption(t, err, "entry extends past head")
}

// TestRecoverDetectsTornPointers pins torn (misaligned) head and tail
// words as corruption. A strict parse that trusts the tail reads its
// first length word at a misaligned address and panics.
func TestRecoverDetectsTornPointers(t *testing.T) {
	im, meta := buildImage(t)
	im.WriteWord(meta.Tail, 2)
	_, err := Recover(im, meta)
	wantCorruption(t, err, "head/tail unusable")

	im, meta = buildImage(t)
	im.WriteWord(meta.Head, SlotBytes(100)+8)
	_, err = Recover(im, meta)
	wantCorruption(t, err, "head/tail unusable")
}

func TestRecoverEmptyQueue(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	q := MustNew(s, Config{DataBytes: 1 << 12, Design: CWL, Policy: PolicyEpoch})
	entries, err := Recover(m.PersistentImage(), q.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("empty queue recovered %d entries", len(entries))
	}
}

func TestRecoverBadMeta(t *testing.T) {
	im := memory.NewImage()
	if _, err := Recover(im, Meta{DataBytes: 100}); err == nil {
		t.Fatal("unaligned meta accepted")
	}
}

func TestIsCorruption(t *testing.T) {
	im, meta := buildImage(t)
	im.WriteWord(meta.Data, 0)
	_, err := Recover(im, meta)
	var ce *fault.CorruptionError
	if !errors.As(err, &ce) || !fault.IsCorruption(err) {
		t.Fatalf("Recover error %v (%T) is not a fault.CorruptionError", err, err)
	}
	if fault.IsCorruption(nil) {
		t.Fatal("IsCorruption(nil) = true")
	}
	if ce.Reason == "" || err.Error() == "" {
		t.Fatal("corruption without a reason")
	}
}

func TestChecksumDiscriminates(t *testing.T) {
	p := MakePayload(1, 64)
	base := Checksum(0, p)
	if Checksum(64, p) == base {
		t.Error("checksum must bind the offset")
	}
	q := MakePayload(2, 64)
	if Checksum(0, q) == base {
		t.Error("checksum must bind the payload")
	}
}

func TestChecksumProperty(t *testing.T) {
	f := func(off uint64, data []byte, flip uint16) bool {
		if len(data) == 0 {
			return true
		}
		c := Checksum(off, data)
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[int(flip)%len(mut)] ^= 1
		return Checksum(off, mut) != c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMakePayloadDeterministic(t *testing.T) {
	a := MakePayload(42, 128)
	b := MakePayload(42, 128)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("MakePayload not deterministic")
		}
	}
	c := MakePayload(43, 128)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different ids should give different payloads")
	}
}

func TestSlotBytes(t *testing.T) {
	if SlotBytes(100) != 128 {
		t.Fatalf("SlotBytes(100) = %d", SlotBytes(100))
	}
	if SlotBytes(1) != 64 {
		t.Fatalf("SlotBytes(1) = %d", SlotBytes(1))
	}
	if SlotBytes(48) != 64 {
		t.Fatalf("SlotBytes(48) = %d", SlotBytes(48))
	}
	if SlotBytes(49) != 128 {
		t.Fatalf("SlotBytes(49) = %d", SlotBytes(49))
	}
}

func TestNativeMatchesSimulatedOffsets(t *testing.T) {
	// The native and simulated queues must lay entries out identically.
	for _, d := range []Design{CWL, TwoLock} {
		n, err := NewNative(Config{DataBytes: 1 << 14, Design: d})
		if err != nil {
			t.Fatal(err)
		}
		m := exec.NewMachine(exec.Config{})
		s := m.SetupThread()
		q := MustNew(s, Config{DataBytes: 1 << 14, Design: d, Policy: PolicyEpoch})
		for i := uint64(0); i < 12; i++ {
			p := MakePayload(i, 100)
			if no, so := n.Insert(p), q.Insert(s, p); no != so {
				t.Fatalf("%v: native offset %d != simulated %d", d, no, so)
			}
		}
		if n.Head() != s.Load8(q.Meta().Head) {
			t.Fatalf("%v: heads differ", d)
		}
	}
}
