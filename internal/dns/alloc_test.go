package dns

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestAppendPackAllocBudget: packing a multi-record response into a buffer
// with room costs nothing — the compressor is borrowed, not built, and the
// truncating form re-packs into the same buffer.
func TestAppendPackAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m := sampleMessage()
	whole, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	for _, tc := range []struct {
		name string
		pack func() ([]byte, error)
		cut  bool // the message does not fit: only a TC-marked question comes back
	}{
		{"AppendPack", func() ([]byte, error) { return m.AppendPack(buf) }, false},
		{"AppendPackTruncated/fits", func() ([]byte, error) { return m.AppendPackTruncated(buf, MaxUDPSize) }, false},
		{"AppendPackTruncated/cut", func() ([]byte, error) { return m.AppendPackTruncated(buf, len(whole)-1) }, true},
	} {
		out, err := tc.pack()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.cut && !bytes.Equal(out, whole) {
			t.Errorf("%s differs from Pack", tc.name)
		}
		if tc.cut {
			got, err := Unpack(out)
			if err != nil || !got.Header.Truncated || len(got.Answers)+len(got.Authority)+len(got.Additional) != 0 {
				t.Errorf("%s: not a TC-only reply: %+v, %v", tc.name, got, err)
			}
		}
		if n := testing.AllocsPerRun(200, func() { _, _ = tc.pack() }); n != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", tc.name, n)
		}
	}
}

// TestPackAllocBudget: Pack encodes into a borrowed buffer and returns a slice
// of exactly the message, one object whether the message is 40 octets or 4,000.
func TestPackAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	big := sampleMessage()
	for i := 0; i < 40; i++ {
		big.Answers = append(big.Answers, RR{Name: "www.example.com", Class: ClassINET, TTL: 300,
			Data: NewTXT(strings.Repeat("x", 100))})
	}
	for _, m := range []*Message{NewQuery(1, "a.example", TypeA), sampleMessage(), big} {
		want, err := m.AppendPack(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Pack()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Pack = %x, %v; AppendPack = %x", got, err, want)
		}
		if n := testing.AllocsPerRun(200, func() { _, _ = m.Pack() }); n != 1 {
			t.Errorf("Pack of %d octets allocates %.1f objects, want 1", len(want), n)
		}
	}
}

// TestReplyAllocBudget: a reply skeleton is one object, question included.
func TestReplyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	q := NewQuery(7, "www.example.com", TypeA)
	var r *Message
	if n := testing.AllocsPerRun(200, func() { r = q.Reply() }); n != 1 {
		t.Errorf("Reply allocates %.1f objects, want 1", n)
	}
	if r.Question() != q.Question() || !r.Header.Response {
		t.Errorf("reply %+v does not mirror %+v", r, q)
	}
}

// TestUnpackFromAllocBudget: decoding into a message that last held the same
// question allocates nothing for an answerless response, and one object — the
// rdata — per A record; the owner names are the ones already held.
func TestUnpackFromAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	q := NewQuery(9, "t01.example.com", TypeA)
	refused := q.Reply()
	refused.Header.RCode = RCodeRefused
	empty := q.Reply()
	answer := q.Reply()
	for _, a := range []string{"192.0.2.1", "192.0.2.2", "192.0.2.3"} {
		answer.Answers = append(answer.Answers, RR{Name: "t01.example.com", Class: ClassINET, TTL: 60, Data: &A{Addr: mustAddr(a)}})
	}
	for _, tc := range []struct {
		name  string
		m     *Message
		limit float64
	}{
		{"refused", refused, 0},
		{"noerror-empty", empty, 0},
		{"three-A", answer, 3},
	} {
		wire, err := tc.m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		var into Message
		if err := into.UnpackFrom(wire); err != nil { // the slot now holds the question
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := into.UnpackFrom(wire); err != nil {
				t.Fatal(err)
			}
		}); n > tc.limit {
			t.Errorf("%s: UnpackFrom allocates %.1f objects, want <= %.0f", tc.name, n, tc.limit)
		}
	}
}

// TestQuickPackNameMatchesValidate: packName checks labels as it writes them,
// and must reject exactly what Name.Validate rejects, with the same error —
// and encode what it accepts label for label.
func TestQuickPackNameMatchesValidate(t *testing.T) {
	check := func(n Name) bool {
		want := n.Validate()
		for _, c := range []*compressor{nil, new(compressor)} {
			got, err := packName(nil, n, c)
			if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
				t.Logf("%q: packName error %v, Validate %v", n, err, want)
				return false
			}
			for _, sentinel := range []error{ErrNameTooLong, ErrLabelTooLong, ErrEmptyLabel, ErrBadLabel} {
				if errors.Is(err, sentinel) != errors.Is(want, sentinel) {
					return false
				}
			}
			if err != nil {
				if got != nil {
					return false
				}
				continue
			}
			var ref []byte
			for _, l := range n.Labels() {
				ref = append(append(ref, byte(len(l))), l...)
			}
			if ref = append(ref, 0); !bytes.Equal(got, ref) {
				t.Logf("%q: packed %x, want %x", n, got, ref)
				return false
			}
		}
		return true
	}
	long := strings.Repeat("a", 63)
	for _, n := range []Name{
		"", ".", "a.", ".a", "a..b", "a.b", "*", "*.a", "a.*.b", "a*.b", "A.b", "a b.c", "_dmarc.a-b.c",
		"a.b.", "a.b..", Name(long), Name(long + "a"), Name(long + "." + long + "." + long + "." + long),
		Name(long + "." + long + "." + long + "." + long[:61]), Name(long + "." + long + "." + long + "." + long[:62]),
		"bad!.toolong" + Name(long) + "x", "x" + Name(long) + ".bad!",
	} {
		if !check(n) {
			t.Errorf("packName and Validate disagree on %q", n)
		}
	}
	alphabet := []byte("ab-_.*A!0")
	gen := func(seed []byte) bool {
		b := make([]byte, len(seed))
		for i, c := range seed {
			b[i] = alphabet[int(c)%len(alphabet)]
		}
		return check(Name(b))
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestLendReply: an armed query hands its own reply out once — the same object
// arm after arm, with no allocation — with whatever the last handler left in
// it dropped, not truncated for reuse: a handler may have assigned a slice it
// shares with others, and the next one may append. Every other Reply is an
// owned message, and a lent reply equals an owned one field for field.
func TestLendReply(t *testing.T) {
	q := NewQuery(7, "www.example.com", TypeA)
	plain := NewQuery(7, "www.example.com", TypeA)
	owned := q.Reply()
	if q.Reply() == owned {
		t.Fatal("two replies of an unarmed query are one object")
	}

	q.LendReply()
	lent := q.Reply()
	if second := q.Reply(); second == lent {
		t.Error("an armed query lent its reply twice")
	}
	if !reflect.DeepEqual(lent, owned) {
		t.Errorf("lent reply %+v differs from an owned one %+v", lent, owned)
	}
	shared := make([]RR, 1, 4)
	shared[0] = RR{Name: "www.example.com", Class: ClassINET, TTL: 60, Data: &A{Addr: mustAddr("192.0.2.1")}}
	lent.Answers, lent.Authority = shared, shared
	lent.Header.RCode = RCodeNXDomain

	q.Header.ID = 8
	q.LendReply()
	again := q.Reply()
	if again != lent {
		t.Error("re-armed query did not lend the same reply")
	}
	fresh := plain.Reply()
	fresh.Header.ID = 8
	if !reflect.DeepEqual(again, fresh) {
		t.Errorf("re-lent reply %+v is not a fresh skeleton %+v", again, fresh)
	}
	again.Answers = append(again.Answers, RR{Name: "other.example.com"})
	if len(shared) != 1 || len(shared[:2]) != 2 || shared[:2][1].Name != "" {
		t.Errorf("an append to the re-lent reply wrote into the slice the last handler assigned: %+v", shared[:2])
	}

	if !raceEnabled {
		if n := testing.AllocsPerRun(200, func() { q.LendReply(); _ = q.Reply() }); n != 0 {
			t.Errorf("a lent reply allocates %.1f objects, want 0", n)
		}
	}
}
