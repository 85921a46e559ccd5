package dns

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustAddr(s string) netip.Addr {
	a, err := netip.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

func sampleMessage() *Message {
	m := NewQuery(0x1234, "www.example.com", TypeA)
	r := m.Reply()
	r.Header.Authoritative = true
	r.Answers = append(r.Answers,
		RR{Name: "www.example.com", Class: ClassINET, TTL: 300,
			Data: &CNAME{Target: "example.com"}},
		RR{Name: "example.com", Class: ClassINET, TTL: 300,
			Data: &A{Addr: mustAddr("192.0.2.10")}},
	)
	r.Authority = append(r.Authority,
		RR{Name: "example.com", Class: ClassINET, TTL: 86400,
			Data: &NS{Host: "ns1.hosting.example"}},
		RR{Name: "example.com", Class: ClassINET, TTL: 86400,
			Data: &NS{Host: "ns2.hosting.example"}},
	)
	r.Additional = append(r.Additional,
		RR{Name: "ns1.hosting.example", Class: ClassINET, TTL: 86400,
			Data: &A{Addr: mustAddr("198.51.100.1")}},
	)
	return r
}

func TestMessageRoundtrip(t *testing.T) {
	m := sampleMessage()
	buf, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(buf)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestMessageCompressionShrinks(t *testing.T) {
	m := sampleMessage()
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// An uncompressed encoding would repeat example.com 5+ times; the
	// compressed message must be well under that.
	uncompressed := 0
	for _, q := range m.Questions {
		uncompressed += len(q.Name) + 2 + 4
	}
	if len(buf) >= 200 {
		t.Errorf("compressed message is %d bytes, expected < 200", len(buf))
	}
	_ = uncompressed
}

func TestHeaderFlagsRoundtrip(t *testing.T) {
	f := func(id uint16, resp, aa, tc, rd, ra bool, op, rc uint8) bool {
		m := &Message{Header: Header{
			ID: id, Response: resp, Authoritative: aa, Truncated: tc,
			RecursionDesired: rd, RecursionAvailable: ra,
			OpCode: OpCode(op & 0xF), RCode: RCode(rc & 0xF),
		}}
		buf, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m.Header, got.Header)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllRDataTypesRoundtrip(t *testing.T) {
	rrs := []RR{
		{Name: "a.test", Class: ClassINET, TTL: 60, Data: &A{Addr: mustAddr("203.0.113.7")}},
		{Name: "aaaa.test", Class: ClassINET, TTL: 60, Data: &AAAA{Addr: mustAddr("2001:db8::1")}},
		{Name: "ns.test", Class: ClassINET, TTL: 60, Data: &NS{Host: "ns1.test"}},
		{Name: "cn.test", Class: ClassINET, TTL: 60, Data: &CNAME{Target: "target.test"}},
		{Name: "ptr.test", Class: ClassINET, TTL: 60, Data: &PTR{Target: "host.test"}},
		{Name: "mx.test", Class: ClassINET, TTL: 60, Data: &MX{Preference: 10, Host: "mail.test"}},
		{Name: "soa.test", Class: ClassINET, TTL: 60, Data: &SOA{
			MName: "ns1.test", RName: "hostmaster.test",
			Serial: 2023102401, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}},
		{Name: "txt.test", Class: ClassINET, TTL: 60, Data: &TXT{Strings: []string{
			"v=spf1 ip4:203.0.113.0/24 -all"}}},
		{Name: "txt2.test", Class: ClassINET, TTL: 60, Data: &TXT{Strings: []string{"a", "b", ""}}},
		{Name: "unk.test", Class: ClassINET, TTL: 60, Data: &Unknown{T: Type(999), Data: []byte{1, 2, 3}}},
	}
	m := &Message{Header: Header{ID: 7, Response: true}, Answers: rrs}
	buf, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(buf)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !reflect.DeepEqual(m.Answers, got.Answers) {
		t.Errorf("answers mismatch:\n got %v\nwant %v", got.Answers, m.Answers)
	}
}

func TestLongTXTSplitting(t *testing.T) {
	long := strings.Repeat("x", 700)
	txt := NewTXT(long)
	if len(txt.Strings) != 3 {
		t.Fatalf("expected 3 chunks, got %d", len(txt.Strings))
	}
	if txt.Joined() != long {
		t.Error("Joined does not reassemble original")
	}
	m := &Message{Answers: []RR{{Name: "t.test", Class: ClassINET, TTL: 1, Data: txt}}}
	buf, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	gotTXT := got.Answers[0].Data.(*TXT)
	if gotTXT.Joined() != long {
		t.Error("roundtripped TXT differs")
	}
}

func TestPackTruncated(t *testing.T) {
	m := NewQuery(9, "big.test", TypeTXT).Reply()
	for i := 0; i < 40; i++ {
		m.Answers = append(m.Answers, RR{
			Name: "big.test", Class: ClassINET, TTL: 60,
			Data: NewTXT(strings.Repeat("p", 200)),
		})
	}
	full, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= MaxUDPSize {
		t.Fatal("test message unexpectedly small")
	}
	buf, err := m.AppendPackTruncated(nil, MaxUDPSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > MaxUDPSize {
		t.Errorf("truncated pack is %d bytes", len(buf))
	}
	got, err := Unpack(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Header.Truncated {
		t.Error("TC flag not set")
	}
	if len(got.Answers) != 0 {
		t.Error("truncated message should carry no answers")
	}
	// Under the limit, AppendPackTruncated must be a no-op.
	small := NewQuery(1, "a.test", TypeA)
	b1, _ := small.Pack()
	b2, err := small.AppendPackTruncated(nil, MaxUDPSize)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Error("AppendPackTruncated altered a small message")
	}
}

func TestReplyMirrorsQuery(t *testing.T) {
	q := NewQuery(4242, "example.org", TypeTXT)
	r := q.Reply()
	if r.Header.ID != 4242 || !r.Header.Response {
		t.Error("reply header wrong")
	}
	if r.Question() != q.Question() {
		t.Error("reply question not mirrored")
	}
	if !r.Header.RecursionDesired {
		t.Error("RD not mirrored")
	}
}

func TestAnswersOfType(t *testing.T) {
	m := sampleMessage()
	if got := len(m.AnswersOfType(TypeA)); got != 1 {
		t.Errorf("A answers = %d", got)
	}
	if got := len(m.AnswersOfType(TypeCNAME)); got != 1 {
		t.Errorf("CNAME answers = %d", got)
	}
	if got := len(m.AnswersOfType(TypeTXT)); got != 0 {
		t.Errorf("TXT answers = %d", got)
	}
}

func TestUnpackHostileMessages(t *testing.T) {
	// Random garbage must never panic, only return errors.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		n := r.Intn(64)
		buf := make([]byte, n)
		r.Read(buf)
		_, _ = Unpack(buf) // must not panic
	}
	// A valid message truncated at every length must never panic.
	full, err := sampleMessage().Pack()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(full); i++ {
		_, _ = Unpack(full[:i])
	}
}

func TestQuickMessageRoundtripFuzzedFields(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		name := randomName(r)
		m := NewQuery(uint16(r.Uint32()), name, TypeA)
		resp := m.Reply()
		for i := 0; i < r.Intn(4); i++ {
			resp.Answers = append(resp.Answers, RR{
				Name: name, Class: ClassINET, TTL: uint32(r.Intn(100000)),
				Data: &A{Addr: netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})},
			})
		}
		buf, err := resp.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(resp, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummaryContainsSections(t *testing.T) {
	s := sampleMessage().Summary()
	for _, want := range []string{"question:", "answer:", "authority:", "additional:", "NOERROR"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

func TestTypeAndClassStrings(t *testing.T) {
	if TypeTXT.String() != "TXT" || Type(4242).String() != "TYPE4242" {
		t.Error("Type.String wrong")
	}
	if ClassINET.String() != "IN" || Class(9).String() != "CLASS9" {
		t.Error("Class.String wrong")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(14).String() != "RCODE14" {
		t.Error("RCode.String wrong")
	}
	if OpQuery.String() != "QUERY" || OpCode(7).String() != "OPCODE7" {
		t.Error("OpCode.String wrong")
	}
	if tt, err := ParseType("AAAA"); err != nil || tt != TypeAAAA {
		t.Error("ParseType failed")
	}
	if _, err := ParseType("BOGUS"); err == nil {
		t.Error("ParseType accepted bogus type")
	}
}

// TestQuickPackTruncatedBound: for any answer-section size, AppendPackTruncated
// never exceeds the limit and parses back cleanly.
func TestQuickPackTruncatedBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewQuery(uint16(r.Uint32()), randomName(r), TypeTXT).Reply()
		for i := 0; i < r.Intn(30); i++ {
			m.Answers = append(m.Answers, RR{
				Name: m.Question().Name, Class: ClassINET, TTL: 60,
				Data: NewTXT(strings.Repeat("q", r.Intn(300)+1)),
			})
		}
		limit := 512
		buf, err := m.AppendPackTruncated(nil, limit)
		if err != nil || len(buf) > limit {
			return false
		}
		parsed, err := Unpack(buf)
		if err != nil {
			return false
		}
		full, _ := m.Pack()
		// Either the message fit whole, or TC is set with answers dropped.
		if len(full) <= limit {
			return !parsed.Header.Truncated && len(parsed.Answers) == len(m.Answers)
		}
		return parsed.Header.Truncated && len(parsed.Answers) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAppendPackWithPrefix(t *testing.T) {
	m := NewQuery(77, "www.example.com", TypeA).Reply()
	m.Answers = append(m.Answers,
		MustParseRR("www.example.com 300 IN CNAME example.com"),
		MustParseRR("example.com 300 IN A 192.0.2.10"))
	m.Authority = append(m.Authority,
		MustParseRR("example.com 86400 IN NS ns1.hosting.test"))

	plain, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("tcp-len-prefix")
	buf, err := m.AppendPack(append([]byte{}, prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, prefix) {
		t.Fatal("AppendPack clobbered the prefix")
	}
	appended := buf[len(prefix):]
	if !bytes.Equal(appended, plain) {
		t.Errorf("AppendPack bytes differ from Pack:\n  append: %x\n  pack:   %x", appended, plain)
	}
	parsed, err := Unpack(appended)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Answers) != 2 || parsed.Answers[0].Name != "www.example.com" {
		t.Errorf("round-trip through prefixed AppendPack: %+v", parsed)
	}
}

func TestAppendPackReusesCapacity(t *testing.T) {
	m := NewQuery(1, "www.example.com", TypeA)
	scratch := make([]byte, 0, 512)
	buf, err := m.AppendPack(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &buf[0] != &scratch[:1][0] {
		t.Error("AppendPack reallocated despite sufficient capacity")
	}
	if _, err := Unpack(buf); err != nil {
		t.Fatal(err)
	}
}
