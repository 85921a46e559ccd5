package core

import (
	"testing"
	"unsafe"
)

// TestURSize pins a UR's bytes: a sweep holds one per (nameserver, domain,
// type, rdata), millions at paper scale, so a field added here costs its
// size times that count and has to justify it. What a UR does not own lives
// elsewhere and is reached through a pointer:
//   - the server's address, host and provider: Server, the run's one
//     NameserverInfo for that server (Config.Nameservers);
//   - ASN, AS name, country, web probe and TXT class: Enrichment, one record
//     per distinct (type, rdata), built by rdataFacts and attached by
//     enrichOne.
//
// 104 bytes today (the 112-byte size class); 272 when both were copied in.
func TestURSize(t *testing.T) {
	n := unsafe.Sizeof(UR{})
	t.Logf("unsafe.Sizeof(UR{}) = %d bytes", n)
	if n > 128 {
		t.Errorf("unsafe.Sizeof(UR{}) = %d bytes, want at most 128", n)
	}
}
