package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/transport"
	"repro/internal/urwatch"
)

const apex dns.Name = "feed.urwatch.test"

// lines is the daemon's operator output; the health logger and the NOTIFY
// senders write to it from their own goroutines.
type lines struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// has reports whether the output holds s, waiting up to wait for it.
func (l *lines) has(s string, wait time.Duration) bool {
	for end := time.Now().Add(wait); ; time.Sleep(10 * time.Millisecond) {
		l.mu.Lock()
		ok := strings.Contains(l.b.String(), s)
		l.mu.Unlock()
		if ok || time.Now().After(end) {
			return ok
		}
	}
}

// runDaemon starts urwatchd with args on a tiny seed-7 world and loopback
// listeners and serves it until stop (or cleanup); the drain must succeed.
func runDaemon(t *testing.T, out *lines, wrap func(urwatch.SweepFunc) urwatch.SweepFunc, args ...string) (*daemon, func()) {
	t.Helper()
	// A truncated UDP answer is retried over TCP at the same address, so
	// the DNS listeners must share a port.
	d, err := start(parseFlags(append([]string{"-scale", "tiny", "-seed", "7",
		"-http", "127.0.0.1:0", "-dns", "127.0.0.1:0"}, args...)), out, wrap)
	if err != nil || d.udp.Port() != d.tcp.Port() {
		t.Fatalf("start: %v (%+v)", err, d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- d.serve(ctx) }()
	stop := sync.OnceFunc(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	t.Cleanup(stop)
	return d, stop
}

// load runs clients HTTP and clients DNS clients until d's watcher has made
// its -sweeps sweeps and each client has been answered once. An exchange
// error, a 5xx, REFUSED or SERVFAIL, a listed name with no answer, or a body
// from a generation outside the request's N/N+1 window fails t.
func load(t *testing.T, d *daemon, clients int) {
	t.Helper()
	swept := func() bool { return d.watcher.Health().Sweeps >= d.sweeps }
	seq := func() uint64 { return d.watcher.Store().Current().Seq }
	paths := []string{"/v1/providers", "/v1/health", "/v1/coverage",
		"/v1/events?since=0&max=10", "/v1/lookup?domain=ibm.com"}
	listed, unlisted := urwatch.DomainName("ibm.com", apex), "unlisted.example.urwatch."+apex
	qs := []dns.Question{{Name: "gen." + apex, Type: dns.TypeTXT}, {Name: listed, Type: dns.TypeA},
		{Name: listed, Type: dns.TypeTXT}, {Name: unlisted, Type: dns.TypeA}}
	var wg sync.WaitGroup
	for range clients {
		wg.Add(2)
		go func() {
			defer wg.Done()
			cli := &http.Client{Timeout: 5 * time.Second}
			for i := 0; i == 0 || !swept(); i++ {
				path, before := paths[i%len(paths)], seq()
				resp, err := cli.Get("http://" + d.http.String() + path)
				if err != nil {
					t.Errorf("http %s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				var env struct{ Generation uint64 }
				json.Unmarshal(body, &env) // a body without one leaves 0
				if g := env.Generation; resp.StatusCode >= 500 || err != nil || (g > 0 && (g < before || g > seq())) {
					t.Errorf("http %s: status %d, %v, generation %d (window started at %d)", path, resp.StatusCode, err, g, before)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			cli := dnsio.NewClient(&dnsio.NetTransport{})
			for i := 0; i == 0 || !swept(); i++ {
				q := qs[i%len(qs)]
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				resp, err := cli.Query(ctx, d.udp, q.Name, q.Type)
				cancel()
				if err != nil || resp.Header.RCode == dns.RCodeRefused || resp.Header.RCode == dns.RCodeServFail ||
					(len(resp.Answers) == 0 && q.Name != unlisted) {
					t.Errorf("dns %s %s: %v, %v", q.Name, q.Type, err, resp)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// metric scrapes d's /metrics for the value of one series, -1 if absent.
func metric(t *testing.T, d *daemon, series string) int {
	t.Helper()
	resp, err := http.Get("http://" + d.http.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	_, v, _ := strings.Cut(string(body), "\n"+series+" ")
	n := -1
	fmt.Sscan(v, &n)
	return n
}

// TestDaemonLoad serves three 500ms-spaced sweeps to 4 HTTP and 4 DNS
// clients, and one sweep, over before its 2 + 2 clients start, which are
// still answered once each.
func TestDaemonLoad(t *testing.T) {
	for clients, sweeps := range map[int]string{4: "3", 2: "1"} {
		d, stop := runDaemon(t, new(lines), nil, "-interval", "500ms", "-sweeps", sweeps)
		load(t, d, clients)
		stop()
	}
}

// TestDaemonDegraded fails the four sweeps after the first under load with
// a 500ms staleness budget: every client is answered, the failures publish
// nothing, and health walks ok -> degraded -> stale -> ok. An allowlisted
// client then AXFRs the zone at the current serial, an IXFR from it is up
// to date, and the -notify secondary has heard that serial, counted in
// urwatch_notify_sent_total.
func TestDaemonDegraded(t *testing.T) {
	secondary, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer secondary.Close()
	out, calls := new(lines), 0
	failing := func(sweep urwatch.SweepFunc) urwatch.SweepFunc {
		return func(ctx context.Context) (*core.Result, error) {
			if calls++; calls < 2 || calls > 5 {
				return sweep(ctx)
			}
			if calls == 5 { // stale holds until the next publish
				out.has("health: degraded -> stale", 5*time.Second)
			}
			return nil, errors.New("injected sweep failure")
		}
	}
	d, _ := runDaemon(t, out, failing, "-interval", "150ms", "-sweeps", "3",
		"-xfr-allow", "127.0.0.1/32", "-max-staleness", "500ms", "-degraded-after", "2",
		"-notify", secondary.LocalAddr().String())
	load(t, d, 2)
	for _, walk := range []string{"ok -> degraded", "degraded -> stale", "stale -> ok"} {
		if !out.has("health: "+walk+"\n", 5*time.Second) {
			t.Errorf("no health: %s", walk)
		}
	}
	// The watcher counts a sweep before it publishes its generation.
	if !out.has("generation 3: ", 5*time.Second) || d.watcher.Store().Current().Seq != 3 {
		t.Fatalf("3 successful sweeps published %d generations", d.watcher.Store().Current().Seq)
	}
	serial := urwatch.SerialForSeq(3)

	axfr, err := dnsio.Transfer(context.Background(), d.tcp, apex, dns.TypeAXFR, 0)
	ixfr, ierr := dnsio.Transfer(context.Background(), d.tcp, apex, dns.TypeIXFR, serial)
	if err != nil || ierr != nil {
		t.Fatalf("AXFR: %v; IXFR: %v", err, ierr)
	}
	// Transfer ends a full body at its second SOA, so a returned AXFR is
	// SOA-framed; an IXFR from the current serial is that SOA alone.
	if a, _ := axfr.Serial(); a != serial || len(axfr.Records) < 3 {
		t.Errorf("AXFR: serial %d, %d records; want the zone at serial %d", a, len(axfr.Records), serial)
	}
	if i, _ := ixfr.Serial(); i != serial || len(ixfr.Records) != 1 {
		t.Errorf("IXFR from serial %d: serial %d, %d records; want that SOA alone", serial, i, len(ixfr.Records))
	}

	// The secondary acks each NOTIFY queued for it until one carries serial.
	buf := make([]byte, dns.MaxUDPSize)
	secondary.SetReadDeadline(time.Now().Add(5 * time.Second))
	for got := uint32(0); got != serial; {
		n, from, err := secondary.ReadFrom(buf)
		m, uerr := dns.Unpack(buf[:n])
		if err != nil || uerr != nil || m.Header.OpCode != dns.OpNotify || len(m.Answers) != 1 {
			t.Fatalf("no NOTIFY for serial %d: %v, %v, %v", serial, err, uerr, m)
		}
		got = m.Answers[0].Data.(*dns.SOA).Serial
		buf[2] |= 0x80 // QR
		secondary.WriteTo(buf[:n], from)
	}
	if !out.has("notify: generation 3 -> ", 5*time.Second) || metric(t, d, "urwatch_notify_sent_total") < 1 {
		t.Error("generation 3's NOTIFY was acked but not counted in urwatch_notify_sent_total")
	}
}

// TestDaemonTransferRefused: without -xfr-allow, transfers are denied by
// default, so the loopback client's AXFR comes back REFUSED.
func TestDaemonTransferRefused(t *testing.T) {
	d, _ := runDaemon(t, new(lines), nil, "-interval", "150ms", "-sweeps", "2")
	load(t, d, 2)
	res, err := dnsio.Transfer(context.Background(), d.tcp, apex, dns.TypeAXFR, 0)
	if err != nil || res.RCode != dns.RCodeRefused {
		t.Fatalf("AXFR without -xfr-allow: %v, %+v; want REFUSED", err, res)
	}
}

// TestDaemonColdStart runs two daemons on one -snapshot-dir: the first finds
// no directory, sweeps and persists its generations, and the second restores
// the newest before its own sweeps take over.
func TestDaemonColdStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	for run := 1; run <= 2; run++ {
		out := new(lines)
		d, stop := runDaemon(t, out, nil, "-interval", "150ms", "-sweeps", "2", "-snapshot-dir", dir)
		if restored := out.has("restored generation 2 ", 0); restored != (run == 2) {
			t.Fatalf("run %d: restored = %v", run, restored)
		}
		load(t, d, 2)
		stop()
	}
}

// TestDaemonDoH resolves planted verdicts through /dns-query in RFC 8484
// wire format: the answers equal the UDP listener's, and the doh counters on
// /metrics count those two queries and two requests that never decode (a
// wrong media type, 415, and unparsable bytes, 400).
func TestDaemonDoH(t *testing.T) {
	out := new(lines)
	d, _ := runDaemon(t, out, nil, "-interval", "500ms", "-sweeps", "2")
	load(t, d, 2)
	if !out.has("DoH endpoint on http://"+d.http.String()+transport.DoHPath+"\n", 0) {
		t.Error("no DoH endpoint line")
	}
	doh, udp := dnsio.NewClient(&transport.NetDoH{}), dnsio.NewClient(&dnsio.NetTransport{})
	for _, q := range []dns.Question{{Name: "gen." + apex, Type: dns.TypeTXT},
		{Name: urwatch.DomainName("ibm.com", apex), Type: dns.TypeA}} {
		got, err := doh.Query(context.Background(), d.http, q.Name, q.Type)
		want, uerr := udp.Query(context.Background(), d.udp, q.Name, q.Type)
		if err != nil || uerr != nil || got.Header.RCode != dns.RCodeSuccess || len(got.Answers) == 0 || !reflect.DeepEqual(got.Answers, want.Answers) {
			t.Errorf("doh %s %s: %v, %v; udp: %v, %v", q.Name, q.Type, err, got, uerr, want)
		}
	}
	for ctype, status := range map[string]int{"text/plain": 415, transport.DoHMediaType: 400} {
		resp, err := http.Post("http://"+d.http.String()+transport.DoHPath, ctype, bytes.NewReader([]byte{1, 2, 3}))
		if err == nil {
			resp.Body.Close()
		}
		if err != nil || resp.StatusCode != status {
			t.Errorf("POST %s: %v, %v; want status %d", ctype, err, resp, status)
		}
	}
	for _, series := range []string{`urwatch_dns_queries_total{transport="doh"}`, `urwatch_dns_transport_errors_total{transport="doh"}`} {
		if n := metric(t, d, series); n != 2 {
			t.Errorf("%s = %d, want 2", series, n)
		}
	}
}
