package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/dnsio"
	"repro/internal/urwatch"
)

// TestTransferPrintsWholeZone transfers a verdict feed whose AXFR spans
// several messages: every record is printed, framed by the zone's SOA, and
// a server that refuses the transfer is an error.
func TestTransferPrintsWholeZone(t *testing.T) {
	world, err := repro.GenerateWorld(repro.TinyScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.NewPipeline(world).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	store := urwatch.NewStore()
	store.Publish(urwatch.SnapshotFromResult(res, 1, time.Now()))
	acl, err := urwatch.ParseACL("127.0.0.1/32")
	if err != nil {
		t.Fatal(err)
	}
	for _, allow := range []*urwatch.ACL{acl, nil} {
		srv := dnsio.NewServer(&urwatch.ZoneResponder{Apex: "feed.test", Store: store, XferACL: allow})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var out strings.Builder
		err := transfer(&out, srv.TCPAddr(), "feed.test")
		if allow == nil {
			if err == nil || !strings.Contains(err.Error(), "REFUSED") {
				t.Errorf("transfer without an allowlist: %v, want REFUSED", err)
			}
			continue
		}
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		var records, messages int
		fmt.Sscanf(lines[len(lines)-1], ";; %d records in %d messages", &records, &messages)
		soa := "feed.test.\t30\tIN\tSOA\t"
		if err != nil || records != len(lines)-1 || messages < 2 || !strings.HasPrefix(lines[0], soa) || lines[0] != lines[len(lines)-2] {
			t.Errorf("transfer: %v, %d lines, summary %q; first %q", err, len(lines), lines[len(lines)-1], lines[0])
		}
	}
}
