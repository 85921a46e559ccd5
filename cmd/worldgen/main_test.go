package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro"
)

// TestZoneDumpGolden runs the -zone dump for videosport702.com at tiny/42:
// the owner's zone with its www host and SPF, a stale zone left at a past
// provider, and three attacker zones, one with an MX into attacker mail
// infrastructure. The golden file was written before generation built its
// records as typed values, so it pins every record, TTL and SOA field of
// those zones to the world the text round trip built.
func TestZoneDumpGolden(t *testing.T) {
	w, err := repro.GenerateWorld(repro.TinyScale(), 42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/zone-videosport702.com-tiny-42.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	dumpZones(&out, w, "videosport702.com", "")
	if got := out.String(); got != string(want) {
		t.Errorf("-zone videosport702.com differs from the golden file:\n%s", got)
	}

	// -provider keeps that provider's zones only, in the same form.
	out.Reset()
	dumpZones(&out, w, "videosport702.com", "Godaddy")
	if got := out.String(); !strings.HasPrefix(got, "; provider Godaddy, account past-owner-videosport702.com,") ||
		!strings.Contains(string(want), got) {
		t.Errorf("-provider Godaddy dump is not the golden file's Godaddy zone:\n%s", got)
	}

	out.Reset()
	dumpZones(&out, w, "nowhere.example", "")
	if got := out.String(); got != "no hosted zones for nowhere.example.\n" {
		t.Errorf("dump of an unhosted domain = %q", got)
	}
}
