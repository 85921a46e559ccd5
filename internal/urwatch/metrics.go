package urwatch

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/dns"
)

// Metrics is the serving-path instrumentation behind the /metrics endpoint:
// per-zone query counters, transfer counters, and latency histograms. All
// counters are lock-free atomics incremented on the hot path; the Prometheus
// rendering walks them read-only. Every method is nil-receiver safe so the
// front-ends can be wired with or without instrumentation.
type Metrics struct {
	queries  [nZoneLabels]atomic.Int64
	refused  [nZoneLabels]atomic.Int64
	nxdomain [nZoneLabels]atomic.Int64

	// Per-transport views of the same query stream: every answered query
	// counts once under its zone label and once under its transport label.
	tQueries [nTransportLabels]atomic.Int64
	tRefused [nTransportLabels]atomic.Int64
	// tErrors counts requests that never decoded to a DNS message — today
	// only the DoH front-end produces these (bad method, media type,
	// base64, size); the datagram paths drop malformed input silently.
	tErrors [nTransportLabels]atomic.Int64

	xfrServed  atomic.Int64
	xfrRefused atomic.Int64
	notifySent atomic.Int64

	// DNS and HTTP record per-request serving latency; quantiles are
	// exported summary-style.
	DNS  *LatencyHistogram
	HTTP *LatencyHistogram
}

// ZoneLabel buckets queries by the feed subtree they address.
type ZoneLabel uint8

// Zone labels.
const (
	ZoneUrbl    ZoneLabel = iota // urbl.<apex> reversed-IP lookups
	ZoneUrwatch                  // urwatch.<apex> domain lookups
	ZoneMeta                     // apex + gen.<apex> zone metadata
	ZoneOther                    // everything else under the apex
	nZoneLabels
)

// String returns the label's Prometheus value.
func (l ZoneLabel) String() string {
	switch l {
	case ZoneUrbl:
		return "urbl"
	case ZoneUrwatch:
		return "urwatch"
	case ZoneMeta:
		return "meta"
	}
	return "other"
}

// TransportLabel buckets queries by the wire transport they arrived over.
type TransportLabel uint8

// Transport labels.
const (
	TransportUDP TransportLabel = iota
	TransportTCP
	TransportDoT
	TransportDoH
	nTransportLabels
)

// String returns the label's Prometheus value.
func (l TransportLabel) String() string {
	switch l {
	case TransportTCP:
		return "tcp"
	case TransportDoT:
		return "dot"
	case TransportDoH:
		return "doh"
	}
	return "udp"
}

// TransportLabelOf maps a dnsio via string ("udp", "tcp", "dot", "doh") onto
// its label; unknown strings count as udp, the datagram default.
func TransportLabelOf(via string) TransportLabel {
	switch via {
	case "tcp":
		return TransportTCP
	case "dot":
		return TransportDoT
	case "doh":
		return TransportDoH
	}
	return TransportUDP
}

// metricsLatencyRange bounds the latency histograms at 100ms — far past any
// in-process serving path; slower samples clamp to the range maximum.
const metricsLatencyRange = 100_000

// NewMetrics builds an instrumentation set with fresh histograms.
func NewMetrics() *Metrics {
	return &Metrics{
		DNS:  NewLatencyHistogram(metricsLatencyRange),
		HTTP: NewLatencyHistogram(metricsLatencyRange),
	}
}

// observeDNS books one answered DNS query under its subtree and its wire
// transport, by response code, and observes its latency since t0.
func (m *Metrics) observeDNS(zone ZoneLabel, via string, rcode dns.RCode, t0 time.Time) {
	if m == nil {
		return
	}
	t := TransportLabelOf(via)
	m.queries[zone].Add(1)
	m.tQueries[t].Add(1)
	switch rcode {
	case dns.RCodeRefused:
		m.refused[zone].Add(1)
		m.tRefused[t].Add(1)
	case dns.RCodeNXDomain:
		m.nxdomain[zone].Add(1)
	}
	if m.DNS != nil {
		m.DNS.Observe(time.Since(t0))
	}
}

// CountTransportError records one request that never decoded to a DNS
// message on the given transport.
func (m *Metrics) CountTransportError(t TransportLabel) {
	if m != nil {
		m.tErrors[t].Add(1)
	}
}

// CountXfr records one zone-transfer attempt.
func (m *Metrics) CountXfr(refused bool) {
	if m == nil {
		return
	}
	if refused {
		m.xfrRefused.Add(1)
	} else {
		m.xfrServed.Add(1)
	}
}

// CountNotify records one outbound NOTIFY.
func (m *Metrics) CountNotify() {
	if m != nil {
		m.notifySent.Add(1)
	}
}

// ObserveHTTP records one HTTP serving latency.
func (m *Metrics) ObserveHTTP(d time.Duration) {
	if m != nil && m.HTTP != nil {
		m.HTTP.Observe(d)
	}
}

// noMetrics is what WriteProm renders for an API wired without metrics: every
// counter zero, and no histograms, which writeSummary renders as empty.
var noMetrics Metrics

// promQuantiles are the exported summary quantiles.
var promQuantiles = []float64{0.5, 0.9, 0.99}

// WriteProm renders the full metric set in Prometheus text exposition
// format: the serving counters, the store's generation and staleness gauges,
// the cache's hit counters, and the latency summaries. store may not be nil;
// cache may be.
func (m *Metrics) WriteProm(w io.Writer, store *Store, cache *ResponseCache, now time.Time) {
	if m == nil {
		// An API wired without counters still exposes the store gauges.
		m = &noMetrics
	}
	st := store.Staleness(now)
	g := store.Current()

	fmt.Fprintf(w, "# HELP urwatch_dns_queries_total DNS queries answered, by feed subtree and by wire transport.\n")
	fmt.Fprintf(w, "# TYPE urwatch_dns_queries_total counter\n")
	for l := ZoneLabel(0); l < nZoneLabels; l++ {
		fmt.Fprintf(w, "urwatch_dns_queries_total{zone=%q} %d\n", l, m.queries[l].Load())
	}
	for t := TransportLabel(0); t < nTransportLabels; t++ {
		fmt.Fprintf(w, "urwatch_dns_queries_total{transport=%q} %d\n", t, m.tQueries[t].Load())
	}
	fmt.Fprintf(w, "# HELP urwatch_dns_refused_total REFUSED answers, by feed subtree and by wire transport.\n")
	fmt.Fprintf(w, "# TYPE urwatch_dns_refused_total counter\n")
	for l := ZoneLabel(0); l < nZoneLabels; l++ {
		fmt.Fprintf(w, "urwatch_dns_refused_total{zone=%q} %d\n", l, m.refused[l].Load())
	}
	for t := TransportLabel(0); t < nTransportLabels; t++ {
		fmt.Fprintf(w, "urwatch_dns_refused_total{transport=%q} %d\n", t, m.tRefused[t].Load())
	}
	fmt.Fprintf(w, "# HELP urwatch_dns_transport_errors_total Requests that never decoded to a DNS message, by wire transport.\n")
	fmt.Fprintf(w, "# TYPE urwatch_dns_transport_errors_total counter\n")
	for t := TransportLabel(0); t < nTransportLabels; t++ {
		fmt.Fprintf(w, "urwatch_dns_transport_errors_total{transport=%q} %d\n", t, m.tErrors[t].Load())
	}
	fmt.Fprintf(w, "# HELP urwatch_dns_nxdomain_total NXDOMAIN answers, by feed subtree.\n")
	fmt.Fprintf(w, "# TYPE urwatch_dns_nxdomain_total counter\n")
	for l := ZoneLabel(0); l < nZoneLabels; l++ {
		fmt.Fprintf(w, "urwatch_dns_nxdomain_total{zone=%q} %d\n", l, m.nxdomain[l].Load())
	}

	fmt.Fprintf(w, "# HELP urwatch_xfr_total Zone-transfer attempts by outcome.\n")
	fmt.Fprintf(w, "# TYPE urwatch_xfr_total counter\n")
	fmt.Fprintf(w, "urwatch_xfr_total{outcome=\"served\"} %d\n", m.xfrServed.Load())
	fmt.Fprintf(w, "urwatch_xfr_total{outcome=\"refused\"} %d\n", m.xfrRefused.Load())
	fmt.Fprintf(w, "# HELP urwatch_notify_sent_total Outbound NOTIFY messages.\n")
	fmt.Fprintf(w, "# TYPE urwatch_notify_sent_total counter\n")
	fmt.Fprintf(w, "urwatch_notify_sent_total %d\n", m.notifySent.Load())

	hits, misses := cache.Stats()
	fmt.Fprintf(w, "# HELP urwatch_cache_hits_total Response-cache hits.\n")
	fmt.Fprintf(w, "# TYPE urwatch_cache_hits_total counter\n")
	fmt.Fprintf(w, "urwatch_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "# HELP urwatch_cache_misses_total Response-cache misses.\n")
	fmt.Fprintf(w, "# TYPE urwatch_cache_misses_total counter\n")
	fmt.Fprintf(w, "urwatch_cache_misses_total %d\n", misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(w, "# HELP urwatch_cache_hit_ratio Cumulative response-cache hit ratio.\n")
	fmt.Fprintf(w, "# TYPE urwatch_cache_hit_ratio gauge\n")
	fmt.Fprintf(w, "urwatch_cache_hit_ratio %g\n", ratio)

	fmt.Fprintf(w, "# HELP urwatch_generation_seq Sequence number of the served generation.\n")
	fmt.Fprintf(w, "# TYPE urwatch_generation_seq gauge\n")
	fmt.Fprintf(w, "urwatch_generation_seq %d\n", g.Seq)
	fmt.Fprintf(w, "# HELP urwatch_generation_age_seconds Age of the served generation's sweep.\n")
	fmt.Fprintf(w, "# TYPE urwatch_generation_age_seconds gauge\n")
	fmt.Fprintf(w, "urwatch_generation_age_seconds %g\n", st.Age.Seconds())
	fmt.Fprintf(w, "# HELP urwatch_consecutive_sweep_failures Sweep failures since the last publish.\n")
	fmt.Fprintf(w, "# TYPE urwatch_consecutive_sweep_failures gauge\n")
	fmt.Fprintf(w, "urwatch_consecutive_sweep_failures %d\n", st.ConsecutiveFailures)
	fmt.Fprintf(w, "# HELP urwatch_max_staleness_seconds Configured staleness bound (0 = unbounded).\n")
	fmt.Fprintf(w, "# TYPE urwatch_max_staleness_seconds gauge\n")
	fmt.Fprintf(w, "urwatch_max_staleness_seconds %g\n", st.MaxStaleness.Seconds())
	fmt.Fprintf(w, "# HELP urwatch_health_state Staleness health machine state (0=ok 1=degraded 2=stale).\n")
	fmt.Fprintf(w, "# TYPE urwatch_health_state gauge\n")
	fmt.Fprintf(w, "urwatch_health_state %d\n", uint8(st.State))
	fmt.Fprintf(w, "# HELP urwatch_verdicts Verdicts in the served generation.\n")
	fmt.Fprintf(w, "# TYPE urwatch_verdicts gauge\n")
	fmt.Fprintf(w, "urwatch_verdicts %d\n", g.Total())

	m.writeSummary(w, "urwatch_dns_latency_seconds", "DNS serving latency.", m.DNS)
	m.writeSummary(w, "urwatch_http_latency_seconds", "HTTP serving latency.", m.HTTP)
}

// writeSummary renders one histogram as a Prometheus summary: quantile
// gauges plus a sample count.
func (m *Metrics) writeSummary(w io.Writer, name, help string, h *LatencyHistogram) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s summary\n", name)
	for _, q := range promQuantiles {
		var v float64
		if h != nil && h.Count() > 0 {
			v = h.Quantile(q).Seconds()
		}
		fmt.Fprintf(w, "%s{quantile=\"%g\"} %g\n", name, q, v)
	}
	var count int64
	if h != nil {
		count = h.Count()
	}
	fmt.Fprintf(w, "%s_count %d\n", name, count)
}
