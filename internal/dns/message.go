package dns

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Header is the fixed 12-octet DNS message header (RFC 1035 §4.1.1).
type Header struct {
	ID                 uint16
	Response           bool
	OpCode             OpCode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is a query tuple.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String returns the dig-style presentation of q.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// RR is a resource record: owner name, TTL, class, and a typed payload.
type RR struct {
	Name  Name
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the record type of the payload.
func (r RR) Type() Type {
	if r.Data == nil {
		return TypeNone
	}
	return r.Data.Type()
}

// String returns the zone-file presentation of r.
func (r RR) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s", r.Name, r.TTL, r.Class, r.Type(), r.Data)
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR

	// lent is the reply a serve loop lends to this query's handler (see
	// LendReply); nil on every message that is not a serve loop's query.
	lent *reply
}

// reply is a response skeleton and the backing array of its (almost always
// single) question as one object. The array is invisible to callers, so
// replies still compare equal field for field.
type reply struct {
	Message
	q     [1]Question
	taken bool // lent out since the query was last armed
}

// NewQuery builds a standard recursion-desired query for (name, type).
func NewQuery(id uint16, name Name, t Type) *Message {
	return &Message{
		Header: Header{ID: id, RecursionDesired: true},
		Questions: []Question{
			{Name: name, Type: t, Class: ClassINET},
		},
	}
}

// Reply builds a response skeleton mirroring the query's ID, question, and
// recursion-desired flag. The reply is the caller's own, unless m is a serve
// loop's query armed by LendReply.
func (m *Message) Reply() *Message {
	r := m.lent
	if r != nil && !r.taken {
		// Whatever the last handler put in the sections is dropped, never
		// truncated for reuse: handlers assign slices they share with others
		// (a resolver's cached answers) into a reply, and an append into such
		// a slice would write into the cache.
		r.Message = Message{}
		r.taken = true
	} else {
		r = new(reply)
	}
	r.Header = Header{
		ID:               m.Header.ID,
		Response:         true,
		OpCode:           m.Header.OpCode,
		RecursionDesired: m.Header.RecursionDesired,
	}
	if len(m.Questions) > 0 {
		r.Questions = append(r.q[:0], m.Questions...)
	}
	return &r.Message
}

// LendReply arms m, the query a serve loop is about to hand to a handler, so
// that the next Reply on it is built in storage m keeps instead of a new
// object: a loop that serves every query through one pooled message then
// makes no reply skeleton per query. The lent reply is valid until m is armed
// again, so the loop packs it before it reuses m, and a handler must not keep
// it — a contract only a serve loop's own queries are under; Reply on any
// other message, and every Reply after the first on an armed one, returns an
// owned message.
func (m *Message) LendReply() {
	if m.lent == nil {
		m.lent = new(reply)
	}
	m.lent.taken = false
}

// Question returns the first question, or a zero Question if there is none.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// AnswersOfType filters the answer section by record type.
func (m *Message) AnswersOfType(t Type) []RR {
	var out []RR
	for _, rr := range m.Answers {
		if rr.Type() == t {
			out = append(out, rr)
		}
	}
	return out
}

const headerLen = 12

// packPool lends Pack the buffer it encodes into, so that what it returns is a
// slice of exactly the message's size: one allocation, however long the
// message, and no 512-octet array behind a 40-octet reply.
var packPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// Pack serializes m into wire format with name compression.
func (m *Message) Pack() ([]byte, error) {
	bp := packPool.Get().(*[]byte)
	defer packPool.Put(bp)
	buf, err := m.AppendPack((*bp)[:0])
	if err != nil {
		return nil, err
	}
	*bp = buf // keep any grown capacity for the next pack
	return append([]byte(nil), buf...), nil
}

// PackTruncated is AppendPackTruncated into a fresh buffer.
func (m *Message) PackTruncated(maxSize int) ([]byte, error) {
	return m.AppendPackTruncated(make([]byte, 0, 512), maxSize)
}

// AppendPackTruncated appends m's wire form to buf like AppendPack, and if the
// message exceeds maxSize octets it appends instead the message with the
// answer/authority/additional sections emptied and TC set, per the classic UDP
// truncation behaviour. maxSize <= 0 means no limit.
func (m *Message) AppendPackTruncated(buf []byte, maxSize int) ([]byte, error) {
	out, err := m.AppendPack(buf)
	if err != nil {
		return nil, err
	}
	if maxSize <= 0 || len(out)-len(buf) <= maxSize {
		return out, nil
	}
	tc := Message{Header: m.Header, Questions: m.Questions}
	tc.Header.Truncated = true
	return tc.AppendPack(out[:len(buf)])
}

// AppendPack serializes m into wire format with name compression, appending
// to buf and returning the extended slice. buf may already carry bytes (a
// pooled scratch buffer or a TCP length prefix); compression pointers stay
// relative to the start of the appended message. The caller keeps ownership
// of the buffer, which makes pack-buffer reuse possible on the query hot
// path (see internal/dnsio).
func (m *Message) AppendPack(buf []byte) ([]byte, error) {
	if len(m.Questions) > 0xFFFF || len(m.Answers) > 0xFFFF ||
		len(m.Authority) > 0xFFFF || len(m.Additional) > 0xFFFF {
		return nil, errors.New("dns: section too large")
	}
	base := len(buf)
	var hdr [headerLen]byte
	buf = append(buf, hdr[:]...)
	h := &m.Header
	buf[base], buf[base+1] = byte(h.ID>>8), byte(h.ID)
	var flags uint16
	if h.Response {
		flags |= 1 << 15
	}
	flags |= uint16(h.OpCode&0xF) << 11
	if h.Authoritative {
		flags |= 1 << 10
	}
	if h.Truncated {
		flags |= 1 << 9
	}
	if h.RecursionDesired {
		flags |= 1 << 8
	}
	if h.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(h.RCode & 0xF)
	buf[base+2], buf[base+3] = byte(flags>>8), byte(flags)
	put16 := func(i int, v uint16) { buf[base+i], buf[base+i+1] = byte(v>>8), byte(v) }
	put16(4, uint16(len(m.Questions)))
	put16(6, uint16(len(m.Answers)))
	put16(8, uint16(len(m.Authority)))
	put16(10, uint16(len(m.Additional)))

	// Compression state only pays off when a name can repeat: queries with a
	// single question never compress, so the sweep's per-query pack skips
	// the compressor entirely.
	var compress *compressor
	if len(m.Questions)+len(m.Answers)+len(m.Authority)+len(m.Additional) > 1 {
		compress = compressorPool.Get().(*compressor)
		compress.base = base
		defer compress.release()
	}
	var err error
	for _, q := range m.Questions {
		if buf, err = packName(buf, q.Name, compress); err != nil {
			return nil, err
		}
		buf = append(buf, byte(q.Type>>8), byte(q.Type), byte(q.Class>>8), byte(q.Class))
	}
	for _, section := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if buf, err = packRR(buf, rr, compress); err != nil {
				return nil, err
			}
		}
	}
	if len(buf)-base > MaxMessageSize {
		return nil, errors.New("dns: message exceeds 65535 octets")
	}
	return buf, nil
}

func packRR(buf []byte, rr RR, compress *compressor) ([]byte, error) {
	if rr.Data == nil {
		return nil, fmt.Errorf("dns: record %q has no payload", rr.Name)
	}
	var err error
	if buf, err = packName(buf, rr.Name, compress); err != nil {
		return nil, err
	}
	t := rr.Type()
	buf = append(buf, byte(t>>8), byte(t), byte(rr.Class>>8), byte(rr.Class),
		byte(rr.TTL>>24), byte(rr.TTL>>16), byte(rr.TTL>>8), byte(rr.TTL))
	rdlenAt := len(buf)
	buf = append(buf, 0, 0)
	if buf, err = rr.Data.pack(buf, compress); err != nil {
		return nil, err
	}
	rdlen := len(buf) - rdlenAt - 2
	if rdlen > 0xFFFF {
		return nil, errors.New("dns: rdata exceeds 65535 octets")
	}
	buf[rdlenAt], buf[rdlenAt+1] = byte(rdlen>>8), byte(rdlen)
	return buf, nil
}

// Unpack parses a wire-format DNS message.
func Unpack(msg []byte) (*Message, error) {
	var m Message
	if err := m.UnpackFrom(msg); err != nil {
		return nil, err
	}
	return &m, nil
}

// UnpackFrom parses a wire-format DNS message into m, reusing m's section
// slices when their capacity allows, and the name strings already in them: an
// owner name that spells the one in the slot it overwrites, or the message's
// own question name, is not allocated again. This lets a server loop or a
// sweep worker decode each datagram into one long-lived Message — the sweep
// asks A then TXT for one target, and every answer's owner is the question —
// at next to no cost in garbage. On error m is left in an unspecified state.
func (m *Message) UnpackFrom(msg []byte) error {
	if len(msg) < headerLen {
		return errors.New("dns: message shorter than header")
	}
	h := &m.Header
	h.ID = uint16(msg[0])<<8 | uint16(msg[1])
	flags := uint16(msg[2])<<8 | uint16(msg[3])
	h.Response = flags&(1<<15) != 0
	h.OpCode = OpCode(flags >> 11 & 0xF)
	h.Authoritative = flags&(1<<10) != 0
	h.Truncated = flags&(1<<9) != 0
	h.RecursionDesired = flags&(1<<8) != 0
	h.RecursionAvailable = flags&(1<<7) != 0
	h.RCode = RCode(flags & 0xF)

	qd := int(msg[4])<<8 | int(msg[5])
	an := int(msg[6])<<8 | int(msg[7])
	ns := int(msg[8])<<8 | int(msg[9])
	ar := int(msg[10])<<8 | int(msg[11])

	off := headerLen
	var err error
	m.Questions = m.Questions[:0]
	if qd > 0 && cap(m.Questions) == 0 {
		m.Questions = make([]Question, 0, sectionCap(qd, len(msg)-off, 5))
	}
	for i := 0; i < qd; i++ {
		var q Question
		if q.Name, off, err = unpackNameHinted(msg, off, staleName(m.Questions, i), Root); err != nil {
			return fmt.Errorf("dns: question %d: %w", i, err)
		}
		if off+4 > len(msg) {
			return errors.New("dns: truncated question")
		}
		q.Type = Type(uint16(msg[off])<<8 | uint16(msg[off+1]))
		q.Class = Class(uint16(msg[off+2])<<8 | uint16(msg[off+3]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	unpackSection := func(into []RR, n int, what string) ([]RR, error) {
		if n == 0 {
			return into[:0], nil
		}
		rrs := into[:0]
		if cap(rrs) == 0 {
			rrs = make([]RR, 0, sectionCap(n, len(msg)-off, 11))
		}
		for i := 0; i < n; i++ {
			rr, next, err := unpackRR(msg, off, staleOwner(rrs, i), m.Question().Name)
			if err != nil {
				return nil, fmt.Errorf("dns: %s %d: %w", what, i, err)
			}
			off = next
			rrs = append(rrs, rr)
		}
		return rrs, nil
	}
	if m.Answers, err = unpackSection(m.Answers, an, "answer"); err != nil {
		return err
	}
	if m.Authority, err = unpackSection(m.Authority, ns, "authority"); err != nil {
		return err
	}
	if m.Additional, err = unpackSection(m.Additional, ar, "additional"); err != nil {
		return err
	}
	return nil
}

// sectionCap bounds a section preallocation by what the remaining message
// bytes could physically hold (minBytes is the smallest possible entry on
// the wire), so a forged header count cannot force a huge allocation.
func sectionCap(count, remaining, minBytes int) int {
	max := remaining/minBytes + 1
	if count < max {
		return count
	}
	return max
}

// staleName returns the name left in position i of a question section being
// overwritten (qs is the section so far, i == len(qs)), Root when there is no
// such slot.
func staleName(qs []Question, i int) Name {
	if i < cap(qs) {
		return qs[:i+1][i].Name
	}
	return Root
}

// staleOwner is staleName for a record section.
func staleOwner(rrs []RR, i int) Name {
	if i < cap(rrs) {
		return rrs[:i+1][i].Name
	}
	return Root
}

func unpackRR(msg []byte, off int, hint1, hint2 Name) (RR, int, error) {
	var rr RR
	var err error
	if rr.Name, off, err = unpackNameHinted(msg, off, hint1, hint2); err != nil {
		return rr, 0, err
	}
	if off+10 > len(msg) {
		return rr, 0, errors.New("dns: truncated record header")
	}
	t := Type(uint16(msg[off])<<8 | uint16(msg[off+1]))
	rr.Class = Class(uint16(msg[off+2])<<8 | uint16(msg[off+3]))
	rr.TTL = uint32(msg[off+4])<<24 | uint32(msg[off+5])<<16 | uint32(msg[off+6])<<8 | uint32(msg[off+7])
	rdlen := int(msg[off+8])<<8 | int(msg[off+9])
	off += 10
	rr.Data, err = unpackRData(t, msg, off, rdlen)
	if err != nil {
		return rr, 0, err
	}
	return rr, off + rdlen, nil
}

// Summary renders a compact dig-style dump of the message for logs and the
// dnsq tool.
func (m *Message) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; id %d %s %s", m.Header.ID, m.Header.OpCode, m.Header.RCode)
	for _, f := range []struct {
		on   bool
		name string
	}{
		{m.Header.Response, "qr"}, {m.Header.Authoritative, "aa"},
		{m.Header.Truncated, "tc"}, {m.Header.RecursionDesired, "rd"},
		{m.Header.RecursionAvailable, "ra"},
	} {
		if f.on {
			sb.WriteByte(' ')
			sb.WriteString(f.name)
		}
	}
	sb.WriteByte('\n')
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";; question: %s\n", q)
	}
	for _, s := range []struct {
		name string
		rrs  []RR
	}{{"answer", m.Answers}, {"authority", m.Authority}, {"additional", m.Additional}} {
		for _, rr := range s.rrs {
			fmt.Fprintf(&sb, "%s: %s\n", s.name, rr)
		}
	}
	return sb.String()
}
