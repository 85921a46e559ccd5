package dns

import "slices"

// WireQuery is a plain query read straight off the wire by ParseQuery, for a
// responder that answers some questions without a Message on either side.
type WireQuery struct {
	ID uint16
	// Flags is the query's second header word; in a plain query only RD may
	// be set.
	Flags uint16
	Type  Type
	Class Class
	// Name is the question name as UnpackFrom decodes it — lower-cased,
	// presentation form, no trailing dot — in the buffer ParseQuery was lent.
	Name []byte
	// UDPSize is the payload size the query's OPT record advertises,
	// MaxUDPSize when it has none. It is not clamped.
	UDPSize int
}

// flagRD is the RD bit of the second header word (RFC 1035 §4.1.1).
const flagRD = 1 << 8

// labelOctet maps an octet of a question label to its lower-case form, or to
// 0 when Name.Validate would reject it ('.' and '*' included: a dot inside a
// label does not survive the presentation form, and wildcard owners are left
// to the message path).
var labelOctet = func() (t [256]byte) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = byte(c), byte(c)
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c)
	}
	t['-'], t['_'] = '-', '_'
	return t
}()

// ParseQuery reads raw as a plain query, collecting the lower-cased question
// name into name (a buffer of capacity 255 keeps it off the heap). ok is
// false for every other shape, and those are left to UnpackFrom: any flag but
// RD, QDCOUNT other than 1, records in the answer or authority section, an
// additional section that is not exactly one root-owned OPT, a compressed
// question name or one with an octet Name.Validate rejects, and trailing
// octets. What it accepts UnpackFrom accepts too, and decodes to the same
// question. It reads nothing past len(raw) and follows no compression pointer.
func ParseQuery(name, raw []byte) (q WireQuery, ok bool) {
	if len(raw) < headerLen {
		return q, false
	}
	flags := uint16(raw[2])<<8 | uint16(raw[3])
	if flags&^flagRD != 0 {
		return q, false
	}
	if raw[4] != 0 || raw[5] != 1 || raw[6]|raw[7]|raw[8]|raw[9]|raw[10] != 0 || raw[11] > 1 {
		return q, false
	}
	off := headerLen
	for {
		if off >= len(raw) {
			return q, false
		}
		n := int(raw[off])
		off++
		if n == 0 {
			break
		}
		if len(name) > 0 {
			name = append(name, '.')
		}
		// A length octet over 63 is a compression pointer or a reserved label
		// type; 253 octets is the longest name Validate lets through.
		if n > 63 || off+n > len(raw) || len(name)+n > 253 {
			return q, false
		}
		for _, c := range raw[off : off+n] {
			if c = labelOctet[c]; c == 0 {
				return q, false
			}
			name = append(name, c)
		}
		off += n
	}
	if off+4 > len(raw) {
		return q, false
	}
	q.Type = Type(uint16(raw[off])<<8 | uint16(raw[off+1]))
	q.Class = Class(uint16(raw[off+2])<<8 | uint16(raw[off+3]))
	off += 4
	q.UDPSize = MaxUDPSize
	if raw[11] == 1 {
		// EDNS0: root owner, TYPE OPT, and the requester's payload size in
		// the CLASS field; the TTL field and the options are not interpreted.
		if off+11 > len(raw) || raw[off] != 0 || raw[off+1] != 0 || raw[off+2] != byte(TypeOPT) {
			return q, false
		}
		q.UDPSize = int(raw[off+3])<<8 | int(raw[off+4])
		off += 11 + (int(raw[off+9])<<8 | int(raw[off+10]))
	}
	if off != len(raw) {
		return q, false
	}
	q.ID = uint16(raw[0])<<8 | uint16(raw[1])
	q.Flags = flags
	q.Name = name
	return q, true
}

// AppendReply appends the header of a reply to q — its ID, the given flags
// word, QDCOUNT 1 and every other count 0 — and q's question, echoed in the
// form Message.AppendPack gives it. A responder appends its records after it
// and sets their counts. A dst without room for the header and question
// grows once.
func (q *WireQuery) AppendReply(dst []byte, flags uint16) []byte {
	dst = slices.Grow(dst, 12+len(q.Name)+2+4)
	dst = append(dst, byte(q.ID>>8), byte(q.ID), byte(flags>>8), byte(flags), 0, 1, 0, 0, 0, 0, 0, 0)
	for label := q.Name; len(label) > 0; {
		n := 0
		for n < len(label) && label[n] != '.' {
			n++
		}
		dst = append(dst, byte(n))
		dst = append(dst, label[:n]...)
		label = label[min(n+1, len(label)):]
	}
	return append(dst, 0, byte(q.Type>>8), byte(q.Type), byte(q.Class>>8), byte(q.Class))
}
