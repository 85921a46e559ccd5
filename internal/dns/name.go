package dns

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Name handling. Internally a Name is the canonical presentation form:
// lowercase ASCII labels joined by dots, with NO trailing dot. The root zone
// is the empty string. This keeps map keys cheap and comparisons trivial while
// the wire codec handles label encoding and compression.

// Name is a canonicalized domain name ("example.com", root is "").
type Name string

// Root is the DNS root name.
const Root Name = ""

// Errors returned by name validation.
var (
	ErrNameTooLong  = errors.New("dns: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dns: label exceeds 63 octets")
	ErrEmptyLabel   = errors.New("dns: empty label")
	ErrBadLabel     = errors.New("dns: label contains invalid character")
)

// CanonicalName lowercases s and strips a single trailing dot. It does not
// validate; use ParseName for untrusted input.
func CanonicalName(s string) Name {
	s = strings.TrimSuffix(s, ".")
	return Name(strings.ToLower(s))
}

// ParseName canonicalizes and validates a presentation-form domain name.
func ParseName(s string) (Name, error) {
	n := CanonicalName(s)
	if err := n.Validate(); err != nil {
		return Root, err
	}
	return n, nil
}

// MustParseName is ParseName for static names; it panics on invalid input.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// Validate checks RFC 1035 length limits and a permissive LDH-plus character
// set (letters, digits, hyphen, underscore; underscore appears in real DNS
// for SRV/DKIM-style names). It runs on the pack hot path for every name, so
// it scans the string in place without allocating.
func (n Name) Validate() error {
	if n == Root {
		return nil
	}
	// Wire length: each label costs len+1, plus the terminating root octet.
	if len(n)+2 > 255 {
		return ErrNameTooLong
	}
	s := string(n)
	start := 0
	for i := 0; i <= len(s); i++ {
		if i != len(s) && s[i] != '.' {
			continue
		}
		if err := validateLabel(s[start:i], s); err != nil {
			return err
		}
		start = i + 1
	}
	return nil
}

// validateLabel checks one label of name against Validate's rules.
func validateLabel(label, name string) error {
	if label == "" {
		return ErrEmptyLabel
	}
	if len(label) > 63 {
		return ErrLabelTooLong
	}
	if label == "*" {
		return nil // wildcard owner label
	}
	for j := 0; j < len(label); j++ {
		c := label[j]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '-' || c == '_':
		default:
			return fmt.Errorf("%w: %q in %q", ErrBadLabel, c, name)
		}
	}
	return nil
}

// String returns the presentation form with a trailing dot for the root-aware
// display used by dnsq and zone serialization.
func (n Name) String() string {
	if n == Root {
		return "."
	}
	return string(n) + "."
}

// Labels splits the name into its labels, most-specific first. The root name
// has no labels.
func (n Name) Labels() []string {
	if n == Root {
		return nil
	}
	return strings.Split(string(n), ".")
}

// CountLabels returns the number of labels in n.
func (n Name) CountLabels() int {
	if n == Root {
		return 0
	}
	return strings.Count(string(n), ".") + 1
}

// Parent returns the name with the leftmost label removed. Parent of a
// single-label name is the root; parent of the root is the root.
func (n Name) Parent() Name {
	if n == Root {
		return Root
	}
	if i := strings.IndexByte(string(n), '.'); i >= 0 {
		return n[i+1:]
	}
	return Root
}

// IsSubdomainOf reports whether n is equal to or underneath zone.
// Every name is a subdomain of the root.
func (n Name) IsSubdomainOf(zone Name) bool {
	if zone == Root {
		return true
	}
	if n == zone {
		return true
	}
	return strings.HasSuffix(string(n), "."+string(zone))
}

// IsProperSubdomainOf reports whether n is strictly underneath zone.
func (n Name) IsProperSubdomainOf(zone Name) bool {
	return n != zone && n.IsSubdomainOf(zone)
}

// Child prepends a label to n.
func (n Name) Child(label string) Name {
	label = strings.ToLower(label)
	if n == Root {
		return Name(label)
	}
	return Name(label + "." + string(n))
}

// TLD returns the rightmost label of n, or the root for the root name.
func (n Name) TLD() Name {
	if n == Root {
		return Root
	}
	if i := strings.LastIndexByte(string(n), '.'); i >= 0 {
		return n[i+1:]
	}
	return n
}

// SLD returns the registrable-looking two-label suffix of n ("example.com"
// for "www.example.com"). For shorter names it returns n itself. Callers that
// need public-suffix-aware registrable domains should use internal/psl.
func (n Name) SLD() Name {
	labels := n.Labels()
	if len(labels) <= 2 {
		return n
	}
	return Name(strings.Join(labels[len(labels)-2:], "."))
}

// compressTableSize is the inline suffix-table capacity of a compressor.
// Typical authoritative responses register well under 24 suffixes; larger
// messages spill into a map.
const compressTableSize = 24

// compressor tracks name-compression state while packing one message.
// base is the offset of the message's first header byte in the buffer, so
// AppendPack can extend a buffer that already carries unrelated bytes while
// compression pointers stay message-relative. A nil *compressor disables
// compression entirely (query packing skips it: a lone question name has no
// earlier suffix to point at).
//
// The first compressTableSize suffixes live in an inline linear-scan table —
// for the small messages that dominate a sweep this is both faster than a
// map and allocation-free; only outsized messages pay for the overflow map.
//
// A compressor is handed to RData.pack through an interface call, so one on
// the packer's stack would escape to the heap on every pack; AppendPack
// borrows one from compressorPool instead.
type compressor struct {
	names    [compressTableSize]Name
	offs     [compressTableSize]uint16
	n        int
	overflow map[Name]int
	base     int
}

var compressorPool = sync.Pool{New: func() any { return new(compressor) }}

// release returns c to the pool, first dropping the names it holds so a parked
// compressor pins no message's strings.
func (c *compressor) release() {
	clear(c.names[:c.n])
	c.n = 0
	c.overflow = nil
	compressorPool.Put(c)
}

// find returns the message-relative offset where name was first packed.
func (c *compressor) find(n Name) (int, bool) {
	for i := 0; i < c.n; i++ {
		if c.names[i] == n {
			return int(c.offs[i]), true
		}
	}
	if c.overflow != nil {
		off, ok := c.overflow[n]
		return off, ok
	}
	return 0, false
}

// add registers a suffix at a message-relative offset.
func (c *compressor) add(n Name, off int) {
	if c.n < compressTableSize {
		c.names[c.n] = n
		c.offs[c.n] = uint16(off)
		c.n++
		return
	}
	if c.overflow == nil {
		c.overflow = make(map[Name]int, compressTableSize)
	}
	c.overflow[n] = off
}

// packName appends the wire encoding of n to buf, using and updating the
// compression state. A nil compressor disables compression. It enforces
// exactly what Name.Validate does, label by label as it writes them: a suffix
// found in the compression table was written, and so checked, earlier in the
// same message, and a failed check fails the whole pack.
func packName(buf []byte, n Name, c *compressor) ([]byte, error) {
	if n != Root && len(n)+2 > 255 {
		return nil, ErrNameTooLong
	}
	whole := string(n)
	for n != Root {
		if c != nil {
			if off, ok := c.find(n); ok {
				return append(buf, 0xC0|byte(off>>8), byte(off)), nil
			}
			if off := len(buf) - c.base; off < 0x3FFF {
				c.add(n, off)
			}
		}
		label := string(n)
		rest := Root
		i := strings.IndexByte(label, '.')
		if i >= 0 {
			label, rest = label[:i], n[i+1:]
		}
		if err := validateLabel(label, whole); err != nil {
			return nil, err
		}
		if i >= 0 && rest == Root {
			return nil, ErrEmptyLabel // trailing dot: the last label is empty
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
		n = rest
	}
	return append(buf, 0), nil
}

// unpackName decodes a possibly-compressed name starting at off. It returns
// the name and the offset of the first byte after the name in the original
// stream (compression pointers do not advance the stream past the pointer).
// Labels are collected into a stack buffer so a decoded name costs a single
// string allocation.
func unpackName(msg []byte, off int) (Name, int, error) {
	return unpackNameHinted(msg, off, Root, Root)
}

// unpackNameHinted is unpackName for a caller that already holds names the
// decoded one is likely to spell (the slot being overwritten, the message's
// own question): a name equal to a hint is returned as the hint, and costs no
// allocation at all.
func unpackNameHinted(msg []byte, off int, hint1, hint2 Name) (Name, int, error) {
	var nameBuf [255]byte
	nb := nameBuf[:0]
	ptrBudget := 64 // defends against pointer loops
	end := -1       // offset after the name in the top-level stream
	for {
		if off >= len(msg) {
			return Root, 0, errors.New("dns: truncated name")
		}
		b := msg[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			// A hint is taken only if it is itself valid: then it is already
			// canonical, and equals what the bytes would canonicalize to.
			for _, hint := range [...]Name{hint1, hint2} {
				if string(nb) == string(hint) && hint.Validate() == nil {
					return hint, end, nil
				}
			}
			name := CanonicalName(string(nb))
			if err := name.Validate(); err != nil {
				return Root, 0, err
			}
			return name, end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return Root, 0, errors.New("dns: truncated compression pointer")
			}
			if end < 0 {
				end = off + 2
			}
			ptr := int(b&0x3F)<<8 | int(msg[off+1])
			if ptr >= off {
				return Root, 0, errors.New("dns: forward compression pointer")
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return Root, 0, errors.New("dns: compression pointer loop")
			}
			off = ptr
		case b&0xC0 != 0:
			return Root, 0, fmt.Errorf("dns: reserved label type 0x%x", b&0xC0)
		default:
			n := int(b)
			if off+1+n > len(msg) {
				return Root, 0, errors.New("dns: truncated label")
			}
			if len(nb)+1+n > 255 {
				return Root, 0, ErrNameTooLong
			}
			if len(nb) > 0 {
				nb = append(nb, '.')
			}
			nb = append(nb, msg[off+1:off+1+n]...)
			off += 1 + n
		}
	}
}
