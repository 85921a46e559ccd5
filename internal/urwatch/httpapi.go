package urwatch

import (
	"encoding/json"
	"net/http"
	"net/netip"
	"strconv"
	"time"

	"repro/internal/dns"
	"repro/internal/transport"
)

// API is the HTTP/JSON front-end over a verdict store. Every response
// envelope carries the generation number it was served from; like the DNS
// front-end, a request dereferences the generation pointer exactly once, so
// the envelope is internally consistent even mid-publish.
//
// Endpoints (all GET):
//
//	/v1/lookup?domain=<name>     verdicts for a domain
//	/v1/lookup?ip=<addr>         verdicts whose corresponding IPs include addr
//	/v1/provider?name=<provider> one provider's aggregate counts
//	/v1/providers                every provider's aggregate counts
//	/v1/events?since=N&max=M     event-log tail with Seq > N
//	/v1/health                   watcher condition + staleness state
//	/v1/coverage                 last sweep's measurement-coverage summary
//	/metrics                     Prometheus text exposition
//
// Rate-limited clients get 429; malformed queries 400. Nothing here returns
// 5xx in normal operation — the serve-load smoke job asserts that. Every
// response additionally carries the X-URWatch-Staleness and X-URWatch-Health
// headers, so a consumer of *any* endpoint can tell it is reading stale data
// without a second round-trip to /v1/health.
type API struct {
	Store *Store
	// Watcher, when non-nil, supplies /v1/health.
	Watcher *Watcher
	// Limiter, when non-nil, throttles per client IP (from RemoteAddr).
	Limiter *RateLimiter
	// Cache, when non-nil, memoizes marshaled lookup bodies per generation.
	Cache *ResponseCache
	// Metrics, when non-nil, backs /metrics and records HTTP latencies.
	Metrics *Metrics
}

// VerdictJSON is the wire form of one verdict.
type VerdictJSON struct {
	Domain   string   `json:"domain"`
	Type     string   `json:"type"`
	RData    string   `json:"rdata"`
	TTL      uint32   `json:"ttl"`
	Server   string   `json:"server"`
	NSHost   string   `json:"ns_host,omitempty"`
	Provider string   `json:"provider"`
	Category string   `json:"category"`
	Reason   string   `json:"reason,omitempty"`
	ByIntel  bool     `json:"by_intel,omitempty"`
	ByIDS    bool     `json:"by_ids,omitempty"`
	IPs      []string `json:"ips,omitempty"`
}

func verdictJSON(v VerdictView) VerdictJSON {
	out := VerdictJSON{
		Domain:   string(v.Domain()),
		Type:     v.Type().String(),
		RData:    v.RData(),
		TTL:      v.TTL(),
		Server:   v.Server().String(),
		NSHost:   string(v.NSHost()),
		Provider: v.Provider(),
		Category: v.Category().String(),
		Reason:   string(v.Reason()),
		ByIntel:  v.ByIntel(),
		ByIDS:    v.ByIDS(),
	}
	for _, ip := range v.IPs() {
		out.IPs = append(out.IPs, ip.String())
	}
	return out
}

// lookupResponse is the /v1/lookup envelope.
type lookupResponse struct {
	Generation uint64        `json:"generation"`
	Query      string        `json:"query"`
	Listed     bool          `json:"listed"`
	Worst      string        `json:"worst,omitempty"`
	Verdicts   []VerdictJSON `json:"verdicts"`
}

// Handler returns the API's routed handler.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lookup", a.limited(a.handleLookup))
	mux.HandleFunc("/v1/provider", a.limited(a.handleProvider))
	mux.HandleFunc("/v1/providers", a.limited(a.handleProviders))
	mux.HandleFunc("/v1/events", a.limited(a.handleEvents))
	mux.HandleFunc("/v1/health", a.limited(a.handleHealth))
	mux.HandleFunc("/v1/coverage", a.limited(a.handleCoverage))
	mux.HandleFunc("/metrics", a.limited(a.handleMetrics))
	return mux
}

// limited wraps a handler with the per-client token bucket, the staleness
// response headers, and the latency observer.
func (a *API) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var t0 time.Time
		if a.Metrics != nil {
			t0 = time.Now()
		}
		st := a.Store.Staleness(a.now())
		// Headers must precede any WriteHeader call, so stamp them first:
		// a rate-limited or erroring response still reports staleness.
		w.Header().Set("X-URWatch-Staleness", st.HeaderValue())
		w.Header().Set("X-URWatch-Health", st.State.String())
		if a.Limiter != nil {
			client := transport.ClientAddr(r)
			if !a.Limiter.Allow(client) {
				http.Error(w, `{"error":"rate limited"}`, http.StatusTooManyRequests)
				return
			}
		}
		h(w, r)
		if a.Metrics != nil {
			a.Metrics.ObserveHTTP(time.Since(t0))
		}
	}
}

// now reads the store policy's clock so header ages and /metrics gauges stay
// consistent with the health machine under injected test clocks.
func (a *API) now() time.Time {
	if p := a.Store.Policy(); p != nil {
		return p.now()
	}
	return time.Now()
}

// handleMetrics serves the Prometheus text exposition.
func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.Metrics.WriteProm(w, a.Store, a.Cache, a.now())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func badRequest(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": msg})
}

func (a *API) handleLookup(w http.ResponseWriter, r *http.Request) {
	g := a.Store.Current()
	q := r.URL.Query()
	var vs VerdictSet
	var label string
	switch {
	case q.Get("domain") != "":
		d, err := dns.ParseName(q.Get("domain"))
		if err != nil {
			badRequest(w, "bad domain: "+err.Error())
			return
		}
		label = "domain:" + string(d)
		vs = g.Domain(d)
	case q.Get("ip") != "":
		addr, err := netip.ParseAddr(q.Get("ip"))
		if err != nil {
			badRequest(w, "bad ip: "+err.Error())
			return
		}
		label = "ip:" + addr.String()
		vs = g.IP(addr)
	default:
		badRequest(w, "need ?domain= or ?ip=")
		return
	}
	if a.Cache != nil {
		if body, ok := a.Cache.Get(g.Seq, label); ok {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body.([]byte))
			return
		}
	}
	resp := lookupResponse{Generation: g.Seq, Query: label, Listed: vs.Len() > 0}
	if vs.Len() > 0 {
		resp.Worst = worstOf(vs).String()
	}
	resp.Verdicts = make([]VerdictJSON, 0, vs.Len())
	for i := 0; i < vs.Len(); i++ {
		resp.Verdicts = append(resp.Verdicts, verdictJSON(vs.At(i)))
	}
	body, err := json.Marshal(resp)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	body = append(body, '\n')
	if a.Cache != nil {
		a.Cache.Put(g.Seq, label, body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (a *API) handleProvider(w http.ResponseWriter, r *http.Request) {
	g := a.Store.Current()
	name := r.URL.Query().Get("name")
	if name == "" {
		badRequest(w, "need ?name=")
		return
	}
	ps, ok := g.Provider(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{
			"generation": g.Seq, "error": "unknown provider", "name": name,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": g.Seq, "provider": ps,
	})
}

func (a *API) handleProviders(w http.ResponseWriter, r *http.Request) {
	g := a.Store.Current()
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": g.Seq, "providers": g.Providers(),
	})
}

func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since := uint64(0)
	if s := q.Get("since"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			badRequest(w, "bad since: "+err.Error())
			return
		}
		since = n
	}
	max := 1000
	if s := q.Get("max"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			badRequest(w, "bad max")
			return
		}
		max = n
	}
	g := a.Store.Current()
	events, truncated := a.Store.Log().Since(since, max)
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": g.Seq,
		"since":      since,
		"truncated":  truncated,
		"events":     events,
	})
}

func (a *API) handleHealth(w http.ResponseWriter, r *http.Request) {
	if a.Watcher == nil {
		g := a.Store.Current()
		writeJSON(w, http.StatusOK, map[string]any{
			"generation": g.Seq, "verdicts": g.Total(),
		})
		return
	}
	writeJSON(w, http.StatusOK, a.Watcher.Health())
}

func (a *API) handleCoverage(w http.ResponseWriter, r *http.Request) {
	g := a.Store.Current()
	resp := map[string]any{
		"generation": g.Seq,
		"queries":    g.Queries,
	}
	if c := g.Coverage; c != nil {
		resp["attempted"] = c.Attempted
		resp["answered"] = c.Answered
		resp["answered_ratio"] = c.AnsweredRatio()
		resp["recovered"] = c.RetriedRecovered
		resp["breaker_trips"] = c.BreakerTrips
		resp["failed_by_class"] = c.FailedByClass
	}
	writeJSON(w, http.StatusOK, resp)
}
