package dns

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzMessageUnpack drives the wire-format decoder with arbitrary bytes —
// the exact surface a malicious nameserver controls, and the bytes the sweep
// journal feeds back through Unpack on resume. The decoder must never panic,
// and any message it accepts must survive a Pack/Unpack round trip with
// stable wire bytes. A sweep worker decodes every answer into one long-lived
// message, so the same bytes must also decode identically — error for error —
// into a message dirtied by earlier decodes, whose stale names UnpackFrom
// reuses.
func FuzzMessageUnpack(f *testing.F) {
	var seeds [][]byte
	add := func(wire []byte) {
		seeds = append(seeds, wire)
		f.Add(wire)
	}
	if packed, err := sampleMessage().Pack(); err == nil {
		add(packed)
	}
	if q, err := NewQuery(0x1234, "www.example.com", TypeTXT).Pack(); err == nil {
		add(q)
	}
	// The hostile-name corpus from TestUnpackNameHostile, padded behind a
	// plausible header so the fuzzer starts at the interesting decode paths
	// (compression pointers, truncated labels, reserved bits).
	hostileNames := [][]byte{
		{},
		{5, 'a', 'b'},
		{1, 'a'},
		{0xC0, 5},
		{0xC0, 0},
		{0x80, 0},
		{0xC0},
		{1, 'a', 0xC0, 0},
	}
	for _, name := range hostileNames {
		hdr := []byte{
			0x12, 0x34, // ID
			0x81, 0x80, // QR response, RD/RA
			0x00, 0x01, // QDCOUNT 1
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		}
		add(append(hdr, name...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		var dirty Message
		for _, seed := range seeds {
			_ = dirty.UnpackFrom(seed)
			// Twice: over another message's leavings, then over its own.
			for pass := 0; pass < 2; pass++ {
				derr := dirty.UnpackFrom(data)
				if (derr == nil) != (err == nil) || (err != nil && derr.Error() != err.Error()) {
					t.Fatalf("dirty decode error %v, fresh %v\nwire: %x", derr, err, data)
				}
				if err == nil && !reflect.DeepEqual(sectionsOf(&dirty), sectionsOf(m)) {
					t.Fatalf("dirty decode differs:\n got %+v\nwant %+v\nwire: %x", dirty, *m, data)
				}
			}
		}
		if err != nil {
			return
		}
		repacked, err := m.Pack()
		if err != nil {
			// A message assembled from hostile wire bytes may exceed pack
			// limits; rejecting it is fine, corrupting memory is not.
			return
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("re-unpack of own packing failed: %v\nwire: %x", err, repacked)
		}
		again, err := m2.Pack()
		if err != nil {
			t.Fatalf("second pack failed: %v", err)
		}
		if !bytes.Equal(repacked, again) {
			t.Fatalf("pack not stable:\nfirst:  %x\nsecond: %x", repacked, again)
		}
	})
}

// sectionsOf copies a decoded message with empty sections made nil: a reused
// message keeps its emptied slices, a fresh one never made them, and the two
// must otherwise be DeepEqual.
func sectionsOf(m *Message) Message {
	out := Message{Header: m.Header}
	if len(m.Questions) > 0 {
		out.Questions = m.Questions
	}
	if len(m.Answers) > 0 {
		out.Answers = m.Answers
	}
	if len(m.Authority) > 0 {
		out.Authority = m.Authority
	}
	if len(m.Additional) > 0 {
		out.Additional = m.Additional
	}
	return out
}
