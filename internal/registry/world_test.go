package registry_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/dns"
	"repro/internal/scenario"
)

// registryZoneDigests are the sha256 of the root zone's and every TLD
// zone's Serialize, in Zones' order, of a generated world at seed 42. They
// were taken before the registry built its SOA records as typed values:
// the typed path must build the same zones record for record.
var registryZoneDigests = map[string]string{
	"tiny":  "6e0d9095e7932e66e68c3723da891ffc2dfdebf43e47bd18ff2f6feb72f3413f",
	"small": "700a1bbac9abdddccece1358e7a698089989c32015acd028ea2c41a0fcded527",
}

// TestWorldZonesPinned holds the registry's zones of the tiny and small
// worlds at seed 42 to their digests, and each record to the checks
// dns.ParseRR made while the SOAs were built from text.
func TestWorldZonesPinned(t *testing.T) {
	for _, scale := range []scenario.Scale{scenario.Tiny(), scenario.Small()} {
		w, err := scenario.Generate(scale, 42)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.New()
		zones := w.Registry.Zones()
		for _, z := range zones {
			io.WriteString(sum, z.Serialize())
			for _, rr := range z.Records() {
				if err := validRecord(rr); err != nil {
					t.Errorf("%s/42 zone %s: %s: %v", scale.Name, z.Origin().String(), rr, err)
				}
			}
		}
		if got, want := hex.EncodeToString(sum.Sum(nil)), registryZoneDigests[scale.Name]; got != want {
			t.Errorf("%s/42 root and %d TLD zones: sha256 %s, want %s", scale.Name, len(zones)-1, got, want)
		}
	}
}

// validRecord: class IN, valid canonical names, IPv4 glue.
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
	case *dns.NS:
		names = append(names, d.Host)
	case *dns.SOA:
		names = append(names, d.MName, d.RName)
	default:
		return fmt.Errorf("unexpected %s record", rr.Type())
	}
	for _, n := range names {
		if err := n.Validate(); err != nil {
			return err
		}
	}
	return nil
}
