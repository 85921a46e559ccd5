// Package tranco generates the deterministic ranked top-site list that
// stands in for the Tranco list in the reproduction. The generator seeds the
// head of the list with the real domains the paper names (with their actual
// Tranco ranks where stated: api.github.com's SLD at 30, ibm.com at 125,
// speedtest.net at 415, gitlab.com at 527, pastebin.com at 2033) and fills
// the remainder with synthetic-but-plausible SLDs across TLDs.
package tranco

import (
	"math/rand"
	"strconv"

	"repro/internal/dns"
)

// Entry is a ranked site.
type Entry struct {
	Rank   int // 1-based
	Domain dns.Name
}

// List is an ordered top-sites list.
type List struct {
	entries []Entry
	rank    map[dns.Name]int
}

// pinned places the paper's case-study domains at their published SLD ranks.
var pinned = map[int]dns.Name{
	30:   "github.com",
	125:  "ibm.com",
	415:  "speedtest.net",
	527:  "gitlab.com",
	2033: "pastebin.com",
}

// head seeds the very top of the list with recognizable names so provider
// reserved-lists have something meaningful to match (google.com is the
// paper's example of an extremely popular blocked domain).
var head = []dns.Name{
	"google.com", "facebook.com", "microsoft.com", "amazon.com",
	"apple.com", "youtube.com", "twitter.com", "instagram.com",
	"wikipedia.org", "netflix.com", "linkedin.com", "baidu.com",
	"yahoo.com", "reddit.com", "office.com", "zoom.us", "adobe.com",
	"wordpress.org", "cloudflare.com", "windowsupdate.com",
	"google-analytics.com", "googleapis.com", "akamai.net", "bing.com",
}

var syntheticTLDs = []string{
	"com", "com", "com", "com", "net", "net", "org", "io", "de", "fr",
	"jp", "cn", "ru", "co.uk", "com.br", "in", "it", "nl",
}

var nameParts = []string{
	"news", "shop", "cloud", "data", "media", "tech", "web", "game",
	"mail", "pay", "bank", "travel", "music", "video", "photo", "social",
	"search", "store", "blog", "forum", "chat", "stream", "learn", "work",
	"health", "sport", "auto", "home", "food", "book",
}

// Generate builds a list of n ranked sites, deterministic in seed.
func Generate(n int, seed int64) *List {
	r := rand.New(rand.NewSource(seed))
	l := &List{entries: make([]Entry, 0, n), rank: make(map[dns.Name]int, n)}
	used := make(map[dns.Name]bool, n)

	place := func(rank int, d dns.Name) {
		l.entries = append(l.entries, Entry{Rank: rank, Domain: d})
		l.rank[d] = rank
		used[d] = true
	}

	nextSynthetic := func() dns.Name {
		for {
			first := nameParts[r.Intn(len(nameParts))]
			second := nameParts[r.Intn(len(nameParts))]
			num := r.Intn(1000)
			tld := syntheticTLDs[r.Intn(len(syntheticTLDs))]
			d := dns.Name(first + second + strconv.Itoa(num) + "." + tld)
			if !used[d] {
				return d
			}
		}
	}

	headIdx := 0
	for rank := 1; rank <= n; rank++ {
		if d, ok := pinned[rank]; ok {
			place(rank, d)
			continue
		}
		if headIdx < len(head) {
			d := head[headIdx]
			headIdx++
			if !used[d] {
				place(rank, d)
				continue
			}
		}
		place(rank, nextSynthetic())
	}
	return l
}

// Len returns the list length.
func (l *List) Len() int { return len(l.entries) }

// Top returns the first k entries (or all, if k exceeds the length).
func (l *List) Top(k int) []Entry {
	if k > len(l.entries) {
		k = len(l.entries)
	}
	out := make([]Entry, k)
	copy(out, l.entries[:k])
	return out
}

// Domains returns the first k domains in rank order.
func (l *List) Domains(k int) []dns.Name {
	top := l.Top(k)
	out := make([]dns.Name, len(top))
	for i, e := range top {
		out[i] = e.Domain
	}
	return out
}

// Rank returns a domain's rank and whether it is on the list.
func (l *List) Rank(d dns.Name) (int, bool) {
	r, ok := l.rank[d]
	return r, ok
}
