package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"testing"

	"repro/internal/dns"
	"repro/internal/zone"
)

// smallWorld is small/42, shared like tinyWorld.
var smallWorld *World

func worldAt(t *testing.T, scale string) *World {
	t.Helper()
	if scale == "tiny" {
		return world(t)
	}
	if smallWorld == nil {
		w, err := Generate(Small(), 42)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		smallWorld = w
	}
	return smallWorld
}

// eachZone calls fn on every zone generation builds that a World reaches:
// kind "hosted" for each zone hosted at a provider (legitimate owners',
// stale ones left at a past provider, attacker zones and their www zones,
// the case-study and bulk plants), and kind "infra" for each provider's
// infrastructure zone, which holds its nameservers' addresses. label names
// the zone's place in the world. Two kinds of zone are out of its reach:
// the root and TLD zones belong to the registry, whose own
// TestWorldZonesPinned pins them, and the zones of self-operated domains
// (hostSelfOperated) are held only by their nameserver on the fabric.
func eachZone(t *testing.T, w *World, fn func(kind, label string, z *zone.Zone)) {
	t.Helper()
	for _, p := range w.Providers {
		infra, ok := p.Nameservers()[0].Server().Zone(p.InfraDomain)
		if !ok {
			t.Fatalf("%s: no infrastructure zone %s", p.Name, p.InfraDomain.String())
		}
		fn("infra", "provider "+p.Name, infra)
		for _, d := range p.HostedDomains() {
			for _, hz := range p.ZonesFor(d) {
				fn("hosted", fmt.Sprintf("provider %s account %s", p.Name, hz.Account.ID), hz.Zone)
			}
		}
	}
}

// zoneDigests are the sha256 of every reachable zone's Serialize, each
// after a "; <label>" line, in eachZone's order. They were taken before
// generation built its records as typed values, when every record went
// through fmt.Sprintf and dns.ParseRR: the typed path must build the same
// world record for record.
var zoneDigests = map[string]map[string]string{
	"tiny": {
		"hosted": "795c3e7a66e25c112d01bf547846558cec3babbbffdd50f9246ce5022da66f94",
		"infra":  "2225b3b260f1a80f25d1584cf18044fcc9eb59c7aae77aeded87857bdbc2af70",
	},
	"small": {
		"hosted": "9cae5a9be8a4de201986b78540c0dbf8d82373d8161cd3d9794530d431f0f93a",
		"infra":  "7088f9fee4397e5927121495486ab0b48239956b00f73a7f14ea29e90af3e895",
	},
}

func TestZoneContentPinned(t *testing.T) {
	for _, scale := range []string{"tiny", "small"} {
		w := worldAt(t, scale)
		sums := map[string]hash.Hash{"hosted": sha256.New(), "infra": sha256.New()}
		counts := map[string]int{}
		eachZone(t, w, func(kind, label string, z *zone.Zone) {
			fmt.Fprintf(sums[kind], "; %s\n", label)
			io.WriteString(sums[kind], z.Serialize())
			counts[kind]++
		})
		for _, kind := range []string{"hosted", "infra"} {
			want := zoneDigests[scale][kind]
			if got := hex.EncodeToString(sums[kind].Sum(nil)); got != want {
				t.Errorf("%s/42 %s zones (%d): sha256 %s, want %s", scale, kind, counts[kind], got, want)
			}
		}
	}
}

// TestGeneratedRecordsValid holds every reachable zone to the checks
// dns.ParseRR made while generation built records from text: each owner
// and rdata name is canonical and valid, an A record's address is IPv4, a
// TXT string fits its 255-octet length byte, and the class is IN.
func TestGeneratedRecordsValid(t *testing.T) {
	for _, scale := range []string{"tiny", "small"} {
		eachZone(t, worldAt(t, scale), func(_, label string, z *zone.Zone) {
			for _, rr := range z.Records() {
				if err := validRecord(rr); err != nil {
					t.Errorf("%s/42 %s: %s: %v", scale, label, rr, err)
				}
			}
		})
	}
}

func validRecord(rr dns.RR) error {
	if rr.Class != dns.ClassINET {
		return fmt.Errorf("class %s, want IN", rr.Class)
	}
	names := []dns.Name{rr.Name}
	switch d := rr.Data.(type) {
	case *dns.A:
		if !d.Addr.Is4() {
			return fmt.Errorf("A address %s is not IPv4", d.Addr)
		}
	case *dns.TXT:
		for _, s := range d.Strings {
			if len(s) > 255 {
				return fmt.Errorf("TXT string of %d octets", len(s))
			}
		}
	case *dns.NS:
		names = append(names, d.Host)
	case *dns.MX:
		names = append(names, d.Host)
	case *dns.CNAME:
		names = append(names, d.Target)
	case *dns.SOA:
		names = append(names, d.MName, d.RName)
	default:
		return fmt.Errorf("unexpected %s record", rr.Type())
	}
	for _, n := range names {
		if err := n.Validate(); err != nil {
			return fmt.Errorf("name %q: %w", string(n), err)
		}
	}
	return nil
}
