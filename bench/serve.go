package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/transport"
	"repro/internal/urwatch"
)

const (
	apex = dns.Name("feed.urwatch.test")

	echoSegment = 1 * time.Second
	dnsSegment  = 2 * time.Second

	requestTimeout = 1 * time.Second
	// latencyLimit is the service limit a reply is held to; slower replies
	// are counted, not failed (on a 2-vCPU shared host they are scheduler
	// ticks, not the program).
	latencyLimit = 5 * time.Millisecond

	unlistedNames = 200_000
	clients       = 2
	sampleEvery   = 2048 // traced pass: one round-trip span per this many requests
)

// What a reply to a query must be.
const (
	wantA   = iota // NOERROR, one A 127.0.0.<code>
	wantTXT        // NOERROR, TXT whose first string starts gen=<seq>
	wantNX         // NXDOMAIN
)

// query is one prepared request: its wire form (ID zero) and the oracle's
// expectation.
type query struct {
	off  uint32 // into keySet.wire
	n    uint16
	want uint8
	code uint8 // wantA: last octet of the answer
}

type keySet struct {
	wire             []byte
	listed, unlisted []query
}

func (k *keySet) bytes(q query) []byte { return k.wire[q.off : q.off+uint32(q.n)] }

func (k *keySet) add(name dns.Name, t dns.Type, want, code uint8) (query, error) {
	off := len(k.wire)
	m := dns.NewQuery(0, name, t)
	// EDNS0, as resolvers send: without it a listed name's TXT evidence
	// overflows 512 octets and comes back truncated.
	m.Additional = append(m.Additional, dns.RR{Class: dns.MaxEDNS0Size, Data: &dns.OPT{}})
	var err error
	if k.wire, err = m.AppendPack(k.wire); err != nil {
		return query{}, fmt.Errorf("pack %s: %w", name, err)
	}
	return query{off: uint32(off), n: uint16(len(k.wire) - off), want: want, code: code}, nil
}

// codeOf is the DNSBL answer code of a category. Listing precedence
// (malicious > suspicious > protective > correct) is ascending code order, so
// a listed name answers with the smallest code among its verdicts.
func codeOf(c core.Category) uint8 {
	switch c {
	case core.CategoryMalicious:
		return urwatch.CodeMalicious
	case core.CategoryUnknown:
		return urwatch.CodeSuspicious
	case core.CategoryProtective:
		return urwatch.CodeProtective
	}
	return urwatch.CodeCorrect
}

func minCode(vs urwatch.VerdictSet) uint8 {
	code := uint8(255)
	for i := 0; i < vs.Len(); i++ {
		code = min(code, codeOf(vs.At(i).Category()))
	}
	return code
}

// buildKeys prepares the workload's queries and the oracle for them, from
// the sweep's records and the generation that serves them: every swept
// domain as A and TXT, every IPv4 destination reversed as A, and names that
// are in neither index.
func buildKeys(res *core.Result, g *urwatch.Generation, unlisted int) (*keySet, error) {
	k := &keySet{}
	domains := map[dns.Name]bool{}
	addrs := map[netip.Addr]bool{}
	for _, u := range res.URs {
		domains[u.Domain] = true
		for _, ip := range u.CorrespondingIPs {
			if ip.Is4() {
				addrs[ip] = true
			}
		}
	}
	sortedDomains := make([]dns.Name, 0, len(domains))
	for d := range domains {
		sortedDomains = append(sortedDomains, d)
	}
	sort.Slice(sortedDomains, func(i, j int) bool { return sortedDomains[i] < sortedDomains[j] })
	for _, d := range sortedDomains {
		vs := g.Domain(d)
		if vs.Len() == 0 {
			return nil, fmt.Errorf("oracle: swept domain %s is not in the generation", d)
		}
		for _, t := range []struct {
			t    dns.Type
			want uint8
		}{{dns.TypeA, wantA}, {dns.TypeTXT, wantTXT}} {
			q, err := k.add(urwatch.DomainName(d, apex), t.t, t.want, minCode(vs))
			if err != nil {
				return nil, err
			}
			k.listed = append(k.listed, q)
		}
	}
	sortedAddrs := make([]netip.Addr, 0, len(addrs))
	for a := range addrs {
		sortedAddrs = append(sortedAddrs, a)
	}
	sort.Slice(sortedAddrs, func(i, j int) bool { return sortedAddrs[i].Less(sortedAddrs[j]) })
	for _, a := range sortedAddrs {
		vs := g.IP(a)
		if vs.Len() == 0 {
			return nil, fmt.Errorf("oracle: destination %s is not in the generation", a)
		}
		name, _ := urwatch.ReverseIPName(a, apex)
		q, err := k.add(name, dns.TypeA, wantA, minCode(vs))
		if err != nil {
			return nil, err
		}
		k.listed = append(k.listed, q)
	}
	for i := 0; i < unlisted; i++ {
		d := dns.Name(fmt.Sprintf("u%06d.unlisted.example", i))
		if g.Domain(d).Len() != 0 {
			return nil, fmt.Errorf("oracle: %s is listed", d)
		}
		q, err := k.add(urwatch.DomainName(d, apex), dns.TypeA, wantNX, 0)
		if err != nil {
			return nil, err
		}
		k.unlisted = append(k.unlisted, q)
	}
	return k, nil
}

// reply is what the harness reads out of a response, with a parser of its
// own so a fault in the program's codec cannot hide on both sides.
type reply struct {
	id      uint16
	rcode   uint8
	answers int
	a       [4]byte // first answer's address, when it is an A record
	isA     bool
	gen     uint64 // from "gen=<n>" opening the first answer's TXT
	hasGen  bool
}

func skipName(b []byte, i int) (int, bool) {
	for i < len(b) {
		switch c := int(b[i]); {
		case c == 0:
			return i + 1, true
		case c&0xC0 == 0xC0:
			return i + 2, i+2 <= len(b)
		default:
			i += 1 + c
		}
	}
	return 0, false
}

func parseReply(b []byte) (reply, bool) {
	var r reply
	if len(b) < 12 || b[2]&0x80 == 0 {
		return r, false
	}
	r.id = uint16(b[0])<<8 | uint16(b[1])
	r.rcode = b[3] & 0x0F
	qd := int(b[4])<<8 | int(b[5])
	r.answers = int(b[6])<<8 | int(b[7])
	i, ok := 12, true
	for ; qd > 0; qd-- {
		if i, ok = skipName(b, i); !ok || i+4 > len(b) {
			return r, false
		}
		i += 4
	}
	if r.answers == 0 {
		return r, true
	}
	if i, ok = skipName(b, i); !ok || i+10 > len(b) {
		return r, false
	}
	typ := int(b[i])<<8 | int(b[i+1])
	rdlen := int(b[i+8])<<8 | int(b[i+9])
	rdata := b[i+10:]
	if rdlen > len(rdata) {
		return r, false
	}
	rdata = rdata[:rdlen]
	switch {
	case typ == int(dns.TypeA) && rdlen == 4:
		r.isA = true
		copy(r.a[:], rdata)
	case typ == int(dns.TypeTXT) && rdlen > 0 && int(rdata[0]) < rdlen:
		s := rdata[1 : 1+int(rdata[0])]
		if bytes.HasPrefix(s, []byte("gen=")) {
			for _, c := range s[4:] {
				if c < '0' || c > '9' {
					break
				}
				r.gen = r.gen*10 + uint64(c-'0')
				r.hasGen = true
			}
		}
	}
	return r, true
}

// client is one closed-loop caller: it sends its next request only when the
// previous reply has arrived, as a mail filter consulting a DNSBL does.
type client struct {
	rng     *rand.Rand
	id      uint16
	send    []byte
	recv    []byte
	lastGen uint64

	// UDP workload: one connected socket to the DNS server, one to the echo
	// server.
	udpDNS, udpEcho *net.UDPConn
	// DoH workload: one keep-alive connection carrying both paths.
	http   *http.Client
	dohURL string
	echURL string
}

// exchange performs one round trip and returns the reply bytes (valid until
// the next call).
func (c *client) exchange(payload []byte, echo bool) ([]byte, error) {
	if c.http == nil {
		conn := c.udpDNS
		if echo {
			conn = c.udpEcho
		}
		if err := conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
			return nil, err
		}
		if _, err := conn.Write(payload); err != nil {
			return nil, err
		}
		n, err := conn.Read(c.recv)
		return c.recv[:n], err
	}
	url := c.dohURL
	if echo {
		url = c.echURL
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", transport.DoHMediaType)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	n, err := io.ReadFull(resp.Body, c.recv)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return c.recv[:n], nil
}

// check holds a DNS reply to the oracle.
func (c *client) check(q query, id uint16, b []byte) bool {
	r, ok := parseReply(b)
	if !ok || r.id != id {
		return false
	}
	switch q.want {
	case wantNX:
		return r.rcode == uint8(dns.RCodeNXDomain) && r.answers == 0
	case wantA:
		return r.rcode == 0 && r.answers == 1 && r.isA && r.a == [4]byte{127, 0, 0, q.code}
	default:
		if r.rcode != 0 || !r.hasGen || r.gen < c.lastGen {
			return false // a generation never goes backwards on a connection
		}
		c.lastGen = r.gen
		return true
	}
}

// segment is one stretch of closed-loop load of one kind.
type segment struct {
	echo    bool
	traced  bool
	wall    time.Duration
	lat     []uint32 // ns, every client's, sorted by stats()
	failed  int64
	over    int64
	sealMs  float64 // churn: SnapshotFromResult under load
	publMs  float64 // churn: Store.Publish under load
	hitRate float64 // responder cache hits / lookups during the segment
}

func (s *segment) qps() float64 { return float64(len(s.lat)) / s.wall.Seconds() }
func (s *segment) pct(p float64) float64 {
	return float64(percentile(s.lat, p)) / 1e3 // microseconds
}

// serveEnv is the urwatchd serving stack brought up the way the daemon does
// with -snapshot-dir, plus the harness's clients.
type serveEnv struct {
	r     *run
	w     *repro.World
	res   *core.Result
	store *urwatch.Store
	zr    *urwatch.ZoneResponder
	group urwatch.ServeGroup
	echo  *echoUDP
	keys  *keySet
	cl    []*client
	seq   uint64
	doh   bool

	udpAddr, httpAddr string

	setupS float64
	genMs  float64 // the world generation inside set-up
	segs   []*segment
}

// serveSetUp is the daemon's life cycle up to listeners open: generate the
// world, sweep it, seal the generation, write the snapshot, and — as a
// restarted daemon would — load it back and restore it into the store.
func (r *run) serveSetUp(doh bool) (*serveEnv, error) {
	e := &serveEnv{r: r, doh: doh, seq: 1}
	dir, err := r.scratch("snapshot-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	if e.w, err = r.generate(0); err != nil {
		return nil, err
	}
	e.genMs = ms(time.Since(t0))
	if e.res, _, err = r.plainSweep(e.w, 0); err != nil {
		return nil, err
	}
	id := r.tr.begin("urwatch.seal", 0, 0)
	g := urwatch.SnapshotFromResult(e.res, e.seq, time.Now())
	r.tr.end(id)
	id = r.tr.begin("urwatch.snapshot_save", 0, 0)
	_, err = urwatch.SaveGeneration(dir, g)
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	id = r.tr.begin("urwatch.snapshot_load", 0, 0)
	loaded, _, err := urwatch.LoadLatestSnapshot(dir)
	r.tr.end(id)
	if err != nil || loaded == nil {
		return nil, fmt.Errorf("load snapshot: %v", err)
	}
	e.store = urwatch.NewStore()
	e.store.Restore(loaded)
	e.zr = &urwatch.ZoneResponder{Apex: apex, Store: e.store,
		Cache: urwatch.NewResponseCache(0), Metrics: urwatch.NewMetrics()}
	srv, err := e.group.StartDNS(e.zr, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle(transport.DoHPath, &transport.DoHHandler{Responder: e.zr})
	mux.HandleFunc(echoPath, echoHTTP)
	httpAddr, err := e.group.StartHTTP(mux, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.setupS = time.Since(t0).Seconds()
	e.udpAddr, e.httpAddr = srv.UDPAddr().String(), httpAddr.String()
	return e, nil
}

// prepare is the harness's own preparation, outside set-up time: the keys
// and their oracle, the echo server, the clients.
func (e *serveEnv) prepare() (err error) {
	if e.keys, err = buildKeys(e.res, e.store.Current(), unlistedNames); err != nil {
		return err
	}
	if e.echo, err = startEchoUDP(); err != nil {
		return err
	}
	for i := 0; i < clients; i++ {
		c := &client{rng: rand.New(rand.NewSource(e.r.seed*31 + int64(i))), recv: make([]byte, 4096), send: make([]byte, 0, 512)}
		if e.doh {
			c.http = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			c.dohURL = "http://" + e.httpAddr + transport.DoHPath
			c.echURL = "http://" + e.httpAddr + echoPath
		} else {
			if c.udpDNS, err = dialUDP(e.udpAddr); err != nil {
				return err
			}
			if c.udpEcho, err = dialUDP(e.echo.addr()); err != nil {
				c.udpDNS.Close()
				return err
			}
		}
		e.cl = append(e.cl, c)
	}
	return nil
}

func dialUDP(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.DialUDP("udp", nil, ua)
}

// close stops everything the environment started and waits for it.
func (e *serveEnv) close() error {
	for _, c := range e.cl {
		if c.http != nil {
			c.http.CloseIdleConnections()
		} else {
			c.udpDNS.Close()
			c.udpEcho.Close()
		}
	}
	if e.echo != nil {
		e.echo.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return e.group.Drain(ctx)
}

// runSegment drives every client for d. DNS segments of the churn workload
// draw half their keys from the unlisted names and publish one generation at
// their start, while the clients are running.
func (e *serveEnv) runSegment(echo bool, d time.Duration, rep int, tr *tracer) *segment {
	s := &segment{echo: echo, traced: tr != nil}
	perClient := make([][]uint32, len(e.cl))
	var failed, over [clients]int64
	hits0, misses0 := e.zr.Cache.Stats()
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for ci, c := range e.cl {
		lat := make([]uint32, 0, 1<<18)
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for n := 0; ; n++ {
				q := e.keys.listed[c.rng.Intn(len(e.keys.listed))]
				if !echo && !e.doh && c.rng.Intn(2) == 0 {
					q = e.keys.unlisted[c.rng.Intn(len(e.keys.unlisted))]
				}
				c.id++
				c.send = append(c.send[:0], e.keys.bytes(q)...)
				c.send[0], c.send[1] = byte(c.id>>8), byte(c.id)
				span := 0
				if tr != nil && n%sampleEvery == 0 {
					span = tr.begin("serve.round_trip", 0, rep)
				}
				start := time.Now()
				b, err := c.exchange(c.send, echo)
				took := time.Since(start)
				tr.end(span)
				switch {
				case err != nil:
					failed[ci]++
				case echo && !bytes.Equal(b, c.send):
					failed[ci]++
				case !echo && !c.check(q, c.id, b):
					failed[ci]++
				default:
					lat = append(lat, uint32(took.Nanoseconds()))
					if took > latencyLimit {
						over[ci]++
					}
				}
				if start.After(deadline) {
					break
				}
			}
			perClient[ci] = lat
		}(ci, c)
	}
	if !echo && !e.doh {
		e.seq++
		id := tr.begin("urwatch.seal", 0, rep)
		ts := time.Now()
		g := urwatch.SnapshotFromResult(e.res, e.seq, time.Now())
		s.sealMs = ms(time.Since(ts))
		tr.end(id)
		id = tr.begin("urwatch.publish", 0, rep)
		ts = time.Now()
		e.store.Publish(g)
		s.publMs = ms(time.Since(ts))
		tr.end(id)
	}
	wg.Wait()
	s.wall = time.Since(t0)
	for ci := range e.cl {
		s.lat = append(s.lat, perClient[ci]...)
		s.failed += failed[ci]
		s.over += over[ci]
	}
	if hits, misses := e.zr.Cache.Stats(); hits+misses > hits0+misses0 {
		s.hitRate = float64(hits-hits0) / float64(hits+misses-hits0-misses0)
	}
	e.segs = append(e.segs, s)
	return s
}

// measure prepares the clients, alternates echo and DNS segments for about
// d — ending on an echo segment so every DNS segment has a probe on both
// sides — and shuts the environment down. traced decides, per DNS segment
// index, whether its requests are sampled into spans.
func (e *serveEnv) measure(d time.Duration, traced func(i int) *tracer) error {
	err := e.prepare()
	if err == nil {
		start := time.Now()
		for i := 0; ; i++ {
			e.runSegment(true, echoSegment, i, nil)
			if i > 0 && time.Since(start)+dnsSegment+echoSegment > d {
				break
			}
			e.runSegment(false, dnsSegment, i, traced(i))
		}
	}
	if cerr := e.close(); err == nil && cerr != nil {
		err = fmt.Errorf("drain: %w", cerr)
	}
	return err
}

// serveSample is one DNS segment's numbers, raw and scaled by the pace of
// the echo segments on either side of it.
type serveSample struct {
	traced                 bool
	rawQPS, rawP50, rawP99 float64
	qps, p50, p99          float64
	p999                   float64
}

// reduce sorts the segments' latencies (left until the load has stopped, so
// sorting disturbs nothing) and reads each DNS segment against its
// neighbours. The host's pace is one number, the echo segments' throughput
// (their mean round trip), and it scales the rate and both percentiles: the
// echo segments' own p99 was tried as the divisor of p99 and is twice as
// noisy as what it divides (README.md).
func (e *serveEnv) reduce() []serveSample {
	refQPS := refUDPEchoQPS
	if e.doh {
		refQPS = refHTTPEchoQPS
	}
	for _, s := range e.segs {
		slices.Sort(s.lat)
	}
	var out []serveSample
	for i, s := range e.segs {
		if s.echo {
			continue
		}
		slow := refQPS / ((e.segs[i-1].qps() + e.segs[i+1].qps()) / 2) // > 1 on a host slower than the reference
		out = append(out, serveSample{
			traced: s.traced,
			rawQPS: s.qps(), rawP50: s.pct(0.50), rawP99: s.pct(0.99), p999: s.pct(0.999),
			qps: s.qps() * slow,
			p50: s.pct(0.50) / slow,
			p99: s.pct(0.99) / slow,
		})
	}
	return out
}

func column(ss []serveSample, f func(serveSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// account books the segments' operations and the observations that are not
// metrics.
func (e *serveEnv) account() {
	r := e.r
	var echoQPS, echoP50, echoP99, hit, seal, publ []float64
	var over int64
	for _, s := range e.segs {
		r.attempted += int64(len(s.lat)) + s.failed
		r.failed += s.failed
		if s.echo {
			echoQPS = append(echoQPS, s.qps())
			echoP50 = append(echoP50, s.pct(0.50))
			echoP99 = append(echoP99, s.pct(0.99))
			continue
		}
		over += s.over
		hit = append(hit, s.hitRate)
		if s.sealMs > 0 {
			seal = append(seal, s.sealMs)
			publ = append(publ, s.publMs)
		}
	}
	r.notes["host_echo_qps"] = median(echoQPS)
	r.notes["host_echo_p50_us"] = median(echoP50)
	r.notes["host_echo_p99_us"] = median(echoP99)
	r.notes["cache_hit_ratio"] = median(hit)
	r.notes["over_limit_replies"] = float64(over)
	r.notes["dns_segments"] = float64(len(hit))
	if len(seal) > 0 {
		r.notes["seal_under_load_ms"] = median(seal)
		r.notes["publish_under_load_ms"] = median(publ)
		r.notes["generations_published"] = float64(e.seq - 1)
	}
}

func runServeUDP(r *run) error { return runServe(r, false) }
func runServeDoH(r *run) error { return runServe(r, true) }

func runServe(r *run, doh bool) error {
	if r.tr != nil {
		return r.tracedServe(doh)
	}
	// Set-up stands between two reference probes, as a sweep repetition
	// does: it is a generation and a cold sweep before anything else.
	before, err := r.ref.run()
	if err != nil {
		return err
	}
	e, err := r.serveSetUp(doh)
	if err != nil {
		return err
	}
	after, err := r.ref.run()
	if err != nil {
		e.close()
		return err
	}
	if err := e.measure(r.window, func(int) *tracer { return nil }); err != nil {
		return err
	}
	ss := e.reduce()
	e.account()
	r.set("setup_s", normalised(e.setupS, before, after))
	r.notes["raw_setup_s"] = e.setupS
	r.set("op_ms", column(ss, func(s serveSample) float64 { return s.p50 / 1e3 })...)
	r.set("qps", column(ss, func(s serveSample) float64 { return s.qps })...)
	r.set("tail_ms", column(ss, func(s serveSample) float64 { return s.p99 / 1e3 })...)
	r.notes["raw_qps"] = median(column(ss, func(s serveSample) float64 { return s.rawQPS }))
	r.notes["raw_op_ms"] = median(column(ss, func(s serveSample) float64 { return s.rawP50 / 1e3 }))
	r.notes["raw_tail_ms"] = median(column(ss, func(s serveSample) float64 { return s.rawP99 / 1e3 }))
	r.notes["raw_p999_us"] = median(column(ss, func(s serveSample) float64 { return s.p999 }))
	return nil
}
