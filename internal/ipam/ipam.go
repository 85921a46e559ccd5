// Package ipam is the reproduction's IP-address management and intelligence
// substrate: it allocates synthetic IPv4 space to organizations (autonomous
// systems) and answers the AS/geolocation lookups that the paper performs
// against the MaxMind database when enriching undelegated A records.
//
// Address space is carved as /16 blocks from a deterministic sequence, so a
// world generated from one seed always maps the same addresses to the same
// organizations, and addresses allocated consecutively within an AS share
// prefixes (which is how the masquerading-SPF case study gets three
// malicious IPs inside one /24).
package ipam

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
)

// ASN is an autonomous system number.
type ASN uint32

// Info is the intelligence record for one IP address.
type Info struct {
	Addr    netip.Addr
	ASN     ASN
	ASName  string
	Country string
}

// asEntry tracks one organization's allocation state. Its identity (asn,
// name, country) is fixed at registration; the cursors move under DB.mu.
type asEntry struct {
	asn     ASN
	name    string
	country string
	blocks  []uint16 // high 16 bits of owned /16s
	next    uint32   // low 16 bits cursor within current block
	cursor  int      // index into blocks
}

// DB allocates address space and resolves IP→AS/geo lookups.
type DB struct {
	mu    sync.RWMutex
	byASN map[ASN]*asEntry
	// byBlock maps a /16 (its high 16 bits) to its owner. A block is published
	// once, when its AS registers, and every collection and determination
	// worker looks addresses up: a lookup is one atomic load, no lock word.
	byBlock   [1 << 16]atomic.Pointer[asEntry]
	nextASN   ASN
	nextBlock uint32 // next unassigned /16, as high-16-bit value
}

// New creates an empty database. Allocation starts in 11.0.0.0/8-adjacent
// space and walks upward, skipping reserved ranges.
func New() *DB {
	return &DB{
		byASN:     make(map[ASN]*asEntry),
		nextASN:   64500,
		nextBlock: 11 << 8, // 11.0.0.0/16
	}
}

// reservedHigh reports whether a /16 (identified by its high 16 bits) falls
// in space we refuse to allocate (loopback, multicast, RFC1918 10/8 and
// 192.168/16, documentation nets).
func reservedHigh(h uint16) bool {
	hi := byte(h >> 8)
	switch {
	case hi == 0 || hi == 10 || hi == 127:
		return true
	case hi >= 224:
		return true
	case h == 192<<8|168, h == 192<<8|0, h == 198<<8|51, h == 203<<8|0:
		return true
	case hi == 172 && byte(h) >= 16 && byte(h) < 32:
		return true
	case hi == 169 && byte(h) == 254:
		return true
	}
	return false
}

// RegisterAS creates an organization with the given number of /16 blocks and
// returns its ASN.
func (db *DB) RegisterAS(name, country string, blocks int) ASN {
	if blocks < 1 {
		blocks = 1
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	e := &asEntry{asn: db.nextASN, name: name, country: country}
	db.nextASN++
	for i := 0; i < blocks; i++ {
		for reservedHigh(uint16(db.nextBlock)) {
			db.nextBlock++
		}
		if db.nextBlock > 0xFFFF {
			panic("ipam: IPv4 space exhausted")
		}
		h := uint16(db.nextBlock)
		db.nextBlock++
		e.blocks = append(e.blocks, h)
		db.byBlock[h].Store(e)
	}
	db.byASN[e.asn] = e
	return e.asn
}

// Allocate hands out the next unused address owned by the AS. Consecutive
// calls return consecutive addresses.
func (db *DB) Allocate(asn ASN) (netip.Addr, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.byASN[asn]
	if !ok {
		return netip.Addr{}, fmt.Errorf("ipam: unknown ASN %d", asn)
	}
	for {
		if e.cursor >= len(e.blocks) {
			return netip.Addr{}, fmt.Errorf("ipam: AS%d address space exhausted", asn)
		}
		// Skip .0 and .255 of each /24 for realism.
		low := byte(e.next)
		if low == 0 || low == 255 {
			e.next++
			if e.next > 0xFFFF {
				e.cursor++
				e.next = 0
			}
			continue
		}
		h := e.blocks[e.cursor]
		addr := netip.AddrFrom4([4]byte{byte(h >> 8), byte(h), byte(e.next >> 8), low})
		e.next++
		if e.next > 0xFFFF {
			e.cursor++
			e.next = 0
		}
		return addr, nil
	}
}

// MustAllocate is Allocate for generators that own their ASNs; it panics on
// error.
func (db *DB) MustAllocate(asn ASN) netip.Addr {
	a, err := db.Allocate(asn)
	if err != nil {
		panic(err)
	}
	return a
}

// Lookup resolves an address to its owning organization.
func (db *DB) Lookup(addr netip.Addr) (Info, bool) {
	if !addr.Is4() {
		return Info{}, false
	}
	b := addr.As4()
	e := db.byBlock[uint16(b[0])<<8|uint16(b[1])].Load()
	if e == nil {
		return Info{}, false
	}
	return Info{Addr: addr, ASN: e.asn, ASName: e.name, Country: e.country}, true
}

// ASNOf is a convenience wrapper returning just the ASN (0 when unknown).
func (db *DB) ASNOf(addr netip.Addr) ASN {
	info, ok := db.Lookup(addr)
	if !ok {
		return 0
	}
	return info.ASN
}

// CountryOf returns the country code for an address ("" when unknown).
func (db *DB) CountryOf(addr netip.Addr) string {
	info, ok := db.Lookup(addr)
	if !ok {
		return ""
	}
	return info.Country
}

// ASNs lists all registered AS numbers, sorted.
func (db *DB) ASNs() []ASN {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]ASN, 0, len(db.byASN))
	for a := range db.byASN {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Countries is the pool of country codes world generators draw from.
var Countries = []string{
	"US", "CN", "DE", "FR", "GB", "JP", "KR", "RU", "BR", "IN",
	"IT", "NL", "SE", "AU", "CA", "ES", "CH", "PL", "TR", "MX",
	"ID", "VN", "SA", "ZA", "EG", "SG", "HK", "TW", "AR", "CL",
}
