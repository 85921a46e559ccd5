package urwatch

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// EventKind names one verdict-feed change.
type EventKind string

// Event kinds.
const (
	// EventAppeared: a UR identity present in generation N+1 but not N.
	EventAppeared EventKind = "ur_appeared"
	// EventRemoved: a UR identity present in generation N but not N+1.
	EventRemoved EventKind = "ur_removed"
	// EventReclassified: same identity, different category (e.g. a suspicious
	// record gaining threat-intel evidence between sweeps).
	EventReclassified EventKind = "class_changed"
)

// Event is one append-only feed change. Seq is assigned by the EventLog at
// append time; the differ leaves it zero.
type Event struct {
	Seq  uint64    `json:"seq"`
	Gen  uint64    `json:"generation"`
	Kind EventKind `json:"kind"`

	Key      string `json:"key"`
	Domain   string `json:"domain"`
	Type     string `json:"type"`
	RData    string `json:"rdata"`
	Server   string `json:"server"`
	Provider string `json:"provider"`

	// Old and New are the categories before/after. Appeared events carry only
	// New; removed events only Old.
	Old string `json:"old,omitempty"`
	New string `json:"new,omitempty"`
}

// GenDiff is the complete delta between two consecutive generations.
type GenDiff struct {
	FromSeq uint64  `json:"from_seq"`
	ToSeq   uint64  `json:"to_seq"`
	Events  []Event `json:"events"`
	same    bool    // every record equal in every field: Publish shares tables
}

// compareIdentity orders two records from (possibly different) generations
// by the record arrays' (domain, server, type, rdata) sort tuple. String
// fields resolve through each generation's own table — identical strings in
// different tables compare equal by content.
func compareIdentity(pg *Generation, pi int, ng *Generation, ni int) int {
	a, b := &pg.recs[pi], &ng.recs[ni]
	if c := strings.Compare(pg.str(a.domain), ng.str(b.domain)); c != 0 {
		return c
	}
	if c := a.server.Compare(b.server); c != 0 {
		return c
	}
	if c := cmp.Compare(a.typ, b.typ); c != 0 {
		return c
	}
	return strings.Compare(pg.str(a.rdata), ng.str(b.rdata))
}

// Diff computes the from-scratch delta between two generations. Both record
// arrays are sorted by the same identity tuple, so the walk is a single
// merge over the two sorted runs — no maps, no per-shard pairing, O(p+n)
// with two moving cursors. Events come out in canonical key order (the final
// sort below, unchanged from the map era), so the diff of the same two
// generations is always byte-identical — the property the event log's
// consumers (and the acceptance test) rely on.
func Diff(prev, next *Generation) *GenDiff {
	d := &GenDiff{}
	var pn, nn int
	if prev != nil {
		d.FromSeq = prev.Seq
		pn = len(prev.recs)
	}
	if next != nil {
		d.ToSeq = next.Seq
		nn = len(next.recs)
	}
	same := prev != nil && next != nil
	pi, ni := 0, 0
	for pi < pn || ni < nn {
		var cmp int
		switch {
		case pi >= pn:
			cmp = 1
		case ni >= nn:
			cmp = -1
		default:
			cmp = compareIdentity(prev, pi, next, ni)
		}
		switch {
		case cmp < 0:
			pv := VerdictView{g: prev, i: pi}
			d.Events = append(d.Events, eventFor(EventRemoved, pv, pv.Category().String(), ""))
			pi++
		case cmp > 0:
			nv := VerdictView{g: next, i: ni}
			d.Events = append(d.Events, eventFor(EventAppeared, nv, "", nv.Category().String()))
			ni++
		default:
			pv := VerdictView{g: prev, i: pi}
			nv := VerdictView{g: next, i: ni}
			if pv.Category() != nv.Category() {
				d.Events = append(d.Events, eventFor(EventReclassified, nv, pv.Category().String(), nv.Category().String()))
			}
			same = same && sameEvidence(prev, pi, next, ni)
			pi++
			ni++
		}
	}
	sort.Slice(d.Events, func(i, j int) bool {
		a, b := d.Events[i], d.Events[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Kind < b.Kind
	})
	for i := range d.Events {
		d.Events[i].Gen = d.ToSeq
	}
	d.same = same && len(d.Events) == 0
	return d
}

// sameEvidence reports whether two records of equal identity agree in every
// other field, the addresses of their IP spans included.
func sameEvidence(pg *Generation, pi int, ng *Generation, ni int) bool {
	a, b := &pg.recs[pi], &ng.recs[ni]
	return a.category == b.category && a.ttl == b.ttl && a.flags == b.flags &&
		pg.str(a.reason) == ng.str(b.reason) && pg.str(a.nsHost) == ng.str(b.nsHost) &&
		pg.str(a.provider) == ng.str(b.provider) &&
		slices.Equal(pg.ipTab[a.ipOff:a.ipOff+a.ipLen], ng.ipTab[b.ipOff:b.ipOff+b.ipLen])
}

func eventFor(kind EventKind, v VerdictView, old, new_ string) Event {
	return Event{
		Kind:     kind,
		Key:      v.Key(),
		Domain:   string(v.Domain()),
		Type:     v.Type().String(),
		RData:    v.RData(),
		Server:   v.Server().String(),
		Provider: v.Provider(),
		Old:      old,
		New:      new_,
	}
}

// EventLog is the append-only history of feed changes. Appends stamp each
// event with a global monotonically increasing sequence number; Since serves
// the tail for pollers.
type EventLog struct {
	mu      sync.RWMutex
	events  []Event
	nextSeq uint64
	// cap bounds retained events; older entries are dropped from the head
	// (pollers that fell behind resync from a full generation instead).
	cap int
}

// DefaultEventLogCap bounds the retained event tail.
const DefaultEventLogCap = 65536

// NewEventLog creates an empty log.
func NewEventLog() *EventLog {
	return &EventLog{nextSeq: 1, cap: DefaultEventLogCap}
}

// Append stamps and retains a diff's events.
func (l *EventLog) Append(d *GenDiff) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range d.Events {
		d.Events[i].Seq = l.nextSeq
		l.nextSeq++
	}
	l.events = append(l.events, d.Events...)
	if over := len(l.events) - l.cap; over > 0 {
		l.events = append([]Event(nil), l.events[over:]...)
	}
}

// Since returns up to max events with Seq > after, oldest first. max <= 0
// means no limit. truncated reports whether older matching events were
// already evicted (the caller should resync from the current generation).
func (l *EventLog) Since(after uint64, max int) (events []Event, truncated bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	// Seq-1, not after+1: after may be the largest uint64.
	if len(l.events) > 0 && l.events[0].Seq-1 > after {
		truncated = true
	}
	i := sort.Search(len(l.events), func(i int) bool { return l.events[i].Seq > after })
	tail := l.events[i:]
	if max > 0 && len(tail) > max {
		tail = tail[:max]
	}
	return append([]Event(nil), tail...), truncated
}

// LastSeq returns the highest assigned sequence number (0 if none).
func (l *EventLog) LastSeq() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.nextSeq - 1
}

// worstOf is a convenience for front-ends: the worst category over a set,
// defaulting to correct when empty.
func worstOf(vs VerdictSet) core.Category {
	c, _ := WorstCategory(vs)
	return c
}
