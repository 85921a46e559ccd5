package dnsio

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/dns"
)

// TestRealSocketConcurrentClients hammers the real-socket server with
// parallel clients over UDP and TCP simultaneously.
func TestRealSocketConcurrentClients(t *testing.T) {
	srv := NewServer(staticResponder{addr: netip.MustParseAddr("203.0.113.80")})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers, per = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(&NetTransport{})
			c.SeedIDs(int64(w))
			for i := 0; i < per; i++ {
				name := dns.Name(fmt.Sprintf("host%d-%d.example.com", w, i))
				resp, err := c.Query(context.Background(), srv.UDPAddr(), name, dns.TypeA)
				if err != nil {
					errs <- err
					return
				}
				if len(resp.AnswersOfType(dns.TypeA)) != 1 {
					errs <- fmt.Errorf("worker %d: bad answers %v", w, resp.Answers)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTCPFraming exercises the length-prefixed stream framing directly
// with pipelined messages on one connection.
func TestTCPFraming(t *testing.T) {
	srv := NewServer(staticResponder{addr: netip.MustParseAddr("203.0.113.80")})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.UDPAddr().Port() != srv.TCPAddr().Port() {
		t.Skip("ephemeral port mismatch between UDP and TCP")
	}

	// Multiple sequential queries over one TCP connection (the server keeps
	// the stream open).
	tr := &NetTransport{}
	for i := 0; i < 5; i++ {
		q := dns.NewQuery(uint16(100+i), dns.Name(fmt.Sprintf("h%d.example.com", i)), dns.TypeA)
		packed, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := tr.Exchange(context.Background(), nil, srv.TCPAddr(), packed, true)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dns.Unpack(raw)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != uint16(100+i) {
			t.Errorf("id = %d", resp.Header.ID)
		}
	}
}

// TestServerDoubleStartAndClose covers lifecycle edges.
func TestServerDoubleStartAndClose(t *testing.T) {
	srv := NewServer(staticResponder{addr: netip.MustParseAddr("203.0.113.80")})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("double Start accepted")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	// Queries after close fail.
	c := NewClient(&NetTransport{})
	c.Retries = 0
	c.Timeout = 200 * time.Millisecond
	if _, err := c.Query(context.Background(), srv.UDPAddr(), "x.test", dns.TypeA); err == nil {
		t.Error("query succeeded after close")
	}
}
