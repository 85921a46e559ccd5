package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/netip"
	"os"
	"testing"
	"time"

	"repro"
	"repro/internal/dns"
	"repro/internal/urwatch"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles(powers) = %v, %v", q1, q3)
	}
	// statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]
	if q1, q3 := quartiles([]float64{3, 7}); !near(q1, 2) || !near(q3, 8) {
		t.Errorf("quartiles(two) = %v, %v", q1, q3)
	}
	if got := spread(ten); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	lat := make([]uint32, 1000)
	for i := range lat {
		lat[i] = uint32(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want uint32
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {0.0001, 1}} {
		if got := percentile(lat, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing")
	}
}

// seg builds a segment of n replies all taking lat, over one second.
func seg(echo bool, n int, lat uint32) *segment {
	s := &segment{echo: echo, wall: time.Second, lat: make([]uint32, n)}
	for i := range s.lat {
		s.lat[i] = lat
	}
	return s
}

func TestReduceNormalisesByNeighbours(t *testing.T) {
	// The host slows by half between the first and the last echo segment;
	// the DNS segments between them must each be read against the mean
	// throughput of their own two neighbours, and the run reports the median
	// of those.
	e := &serveEnv{segs: []*segment{
		seg(true, int(refUDPEchoQPS), 9_000), // the reference host
		seg(false, 50_000, 20_000),
		seg(true, int(refUDPEchoQPS/2), 18_000), // half speed
		seg(false, 25_000, 40_000),
		seg(true, int(refUDPEchoQPS/2), 18_000),
	}}
	ss := e.reduce()
	if len(ss) != 2 {
		t.Fatalf("%d samples, want 2", len(ss))
	}
	if !near(ss[0].rawQPS, 50_000) || !near(ss[0].qps, 50_000/0.75) {
		t.Errorf("first segment qps raw %v norm %v", ss[0].rawQPS, ss[0].qps)
	}
	if !near(ss[0].p50, 20*0.75) || !near(ss[0].p99, 20*0.75) {
		t.Errorf("first segment p50 = %v, p99 = %v, want %v", ss[0].p50, ss[0].p99, 20*0.75)
	}
	if !near(ss[1].qps, 50_000) || !near(ss[1].p50, 20) {
		t.Errorf("second segment: the slow host's 25k/s at 40us should read as 50k/s at 20us, got %v at %v", ss[1].qps, ss[1].p50)
	}
	qps := column(ss, func(s serveSample) float64 { return s.qps })
	if got := median(qps); !near(got, (50_000/0.75+50_000)/2) {
		t.Errorf("median over segments = %v", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "correct", Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "nameservers", Start: 0, End: 90}, // overlaps correct
		{ID: 4, Parent: 1, Name: "analyze", Start: 95, End: 120},   // runs past the parent
		{ID: 5, Parent: 3, Name: "inner", Start: 10, End: 30},
	}
	selfTimes(spans)
	for id, want := range map[int]int64{1: 5, 2: 60, 3: 70, 4: 25, 5: 20} {
		if got := spans[id-1].Self; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0)
	tr.end(id)
	tr.child("y", id, 0, time.Second)
	if err := tr.write("/nonexistent/never-written"); err != nil {
		t.Error(err)
	}
}

func TestMoreReps(t *testing.T) {
	w := 20 * time.Second
	if !moreReps(minSweepReps-1, time.Hour, w) {
		t.Error("the minimum is finished even past the window")
	}
	if !moreReps(5, 17*time.Second, w) { // 3.4 s each: half of the next fits
		t.Error("a repetition that half fits should start")
	}
	if moreReps(5, 19*time.Second, w) { // 3.8 s each: 19+1.9 > 20
		t.Error("a repetition that mostly overshoots should not start")
	}
}

func TestNormalisedByNeighbourProbes(t *testing.T) {
	// On the reference host a timing reads as measured; between a probe at
	// the reference pace and one at half of it the host is taken to run at
	// the mean of the two, and the timing is read down by that much.
	if got := normalised(4000, refProbeMs, refProbeMs); !near(got, 4000) {
		t.Errorf("reference host: %v, want 4000", got)
	}
	if got := normalised(6000, refProbeMs, 2*refProbeMs); !near(got, 4000) {
		t.Errorf("host slowing to half pace: %v, want 4000", got)
	}
}

func TestRefMessageRoundTrip(t *testing.T) {
	m := &refMsg{id: 7, name: "host-12.example.com.", answers: []refRR{
		{name: "host-12.example.com.", typ: 1, ttl: 300, data: []byte{10, 0, 0, 12}},
		{name: "host-12.example.com.", typ: 16, ttl: 60, data: []byte("text")},
	}}
	got := unpackRefMsg(m.pack())
	if got.id != 7 || got.name != m.name || len(got.answers) != 2 ||
		got.answers[1].typ != 16 || got.answers[1].ttl != 60 || string(got.answers[1].data) != "text" ||
		!bytes.Equal(got.answers[0].data, m.answers[0].data) {
		t.Errorf("round trip gave %+v", got)
	}
}

func TestParseReply(t *testing.T) {
	q := dns.NewQuery(0xBEEF, "x.urwatch.feed.test", dns.TypeTXT)
	r := q.Reply()
	r.Answers = append(r.Answers, dns.MustParseRR(`x.urwatch.feed.test 30 IN TXT "gen=17 listed=2"`))
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := parseReply(wire)
	if !ok || got.id != 0xBEEF || got.rcode != 0 || got.answers != 1 || !got.hasGen || got.gen != 17 {
		t.Errorf("TXT reply parsed as %+v, %v", got, ok)
	}
	for cut := 0; cut < len(wire); cut++ { // truncated input must not panic
		parseReply(wire[:cut])
	}
	if _, ok := parseReply(wire[:11]); ok {
		t.Error("short header accepted")
	}
	wire[2] &^= 0x80
	if _, ok := parseReply(wire); ok {
		t.Error("a query accepted as a reply")
	}
}

// TestOracleOnTinyWorld builds the keys and the oracle from a real sweep of
// the tiny world and holds the real responder's answers to it, through the
// same wire path and parser the serve workloads use.
func TestOracleOnTinyWorld(t *testing.T) {
	w, err := repro.GenerateWorld(repro.TinyScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.NewPipeline(w).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	store := urwatch.NewStore()
	store.Publish(urwatch.SnapshotFromResult(res, 3, time.Unix(0, 0)))
	keys, err := buildKeys(res, store.Current(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys.listed) == 0 || len(keys.unlisted) != 16 {
		t.Fatalf("%d listed, %d unlisted keys", len(keys.listed), len(keys.unlisted))
	}
	zr := &urwatch.ZoneResponder{Apex: apex, Store: store}
	c := &client{}
	ask := func(q query, id uint16) []byte {
		m, err := dns.Unpack(keys.bytes(q))
		if err != nil {
			t.Fatal(err)
		}
		m.Header.ID = id
		out, err := zr.HandleQuery(netip.MustParseAddr("127.0.0.1"), m).Pack()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var a, txt int
	for i, q := range append(append([]query(nil), keys.listed...), keys.unlisted...) {
		id := uint16(i + 1)
		b := ask(q, id)
		if !c.check(q, id, b) {
			t.Fatalf("key %d (want %d, code %d): real answer rejected", i, q.want, q.code)
		}
		if c.check(q, id+1, b) {
			t.Fatalf("key %d: wrong ID accepted", i)
		}
		switch q.want {
		case wantA:
			a++
			if q.code < urwatch.CodeMalicious || q.code > urwatch.CodeCorrect {
				t.Fatalf("key %d: code %d", i, q.code)
			}
			wrong := q
			wrong.code = q.code%4 + 2 // 2<->4, 3<->5
			if c.check(wrong, id, b) {
				t.Fatalf("key %d: answer accepted for the wrong code", i)
			}
		case wantTXT:
			txt++
		}
	}
	if a == 0 || txt == 0 {
		t.Errorf("%d A and %d TXT keys", a, txt)
	}
	if c.lastGen != 3 {
		t.Errorf("generation seen = %d, want 3", c.lastGen)
	}
	// A generation must never go backwards on a connection.
	c.lastGen = 4
	for _, q := range keys.listed {
		if q.want == wantTXT {
			if c.check(q, 1, ask(q, 1)) {
				t.Error("an older generation was accepted")
			}
			break
		}
	}
}

// TestBenchmarkJSONInStep holds BENCHMARK.json to the tables in this
// package, so neither can change alone.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if b.Workloads[i].Name != wl.Name || b.Workloads[i].Why != wl.Why {
			t.Errorf("workload %d: %q / %q", i, b.Workloads[i].Name, wl.Name)
		}
		if len(wl.Why) > 200 {
			t.Errorf("%s: why is %d characters", wl.Name, len(wl.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s named twice", d.Name)
		}
		seen[d.Name] = true
	}
}
