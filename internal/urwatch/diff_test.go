package urwatch

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestDiffSyntheticPair(t *testing.T) {
	// prev: k1 (unknown), k2 (correct).  next: k1 reclassified malicious,
	// k2 gone, k3 appeared.
	k1a := mkUR("a.test", "192.0.2.1", core.CategoryUnknown, "198.51.100.1")
	k1b := mkUR("a.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.1")
	k2 := mkUR("b.test", "192.0.2.2", core.CategoryCorrect, "198.51.100.2")
	k3 := mkUR("c.test", "192.0.2.3", core.CategoryProtective, "198.51.100.3")

	prev := sealGen(1, k1a, k2)
	next := sealGen(2, k1b, k3)
	d := Diff(prev, next)

	if d.FromSeq != 1 || d.ToSeq != 2 {
		t.Errorf("diff span = %d -> %d", d.FromSeq, d.ToSeq)
	}
	if len(d.Events) != 3 {
		t.Fatalf("events = %d, want 3: %+v", len(d.Events), d.Events)
	}
	byKind := map[EventKind]Event{}
	for _, e := range d.Events {
		byKind[e.Kind] = e
		if e.Gen != 2 {
			t.Errorf("event %s stamped generation %d, want 2", e.Kind, e.Gen)
		}
	}
	if e := byKind[EventReclassified]; e.Key != urKey(k1b) ||
		e.Old != core.CategoryUnknown.String() || e.New != core.CategoryMalicious.String() {
		t.Errorf("class_changed event = %+v", e)
	}
	if e := byKind[EventRemoved]; e.Key != urKey(k2) || e.Old != core.CategoryCorrect.String() || e.New != "" {
		t.Errorf("ur_removed event = %+v", e)
	}
	if e := byKind[EventAppeared]; e.Key != urKey(k3) || e.New != core.CategoryProtective.String() || e.Old != "" {
		t.Errorf("ur_appeared event = %+v", e)
	}

	// Determinism: the from-scratch diff of the same pair is identical.
	if !sameEvents(d, Diff(prev, next)) {
		t.Error("Diff of the same generation pair is not deterministic")
	}
	// Events are sorted by key.
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i-1].Key > d.Events[i].Key {
			t.Errorf("events out of key order at %d", i)
		}
	}
}

func TestDiffIdenticalGenerations(t *testing.T) {
	v := mkUR("a.test", "192.0.2.1", core.CategoryUnknown, "198.51.100.1")
	prev := sealGen(1, v)
	next := sealGen(2, mkUR("a.test", "192.0.2.1", core.CategoryUnknown, "198.51.100.1"))
	d := Diff(prev, next)
	if len(d.Events) != 0 {
		t.Errorf("identical generations produced %d events: %+v", len(d.Events), d.Events)
	}
}

func TestEventLogSince(t *testing.T) {
	l := NewEventLog()
	g0 := sealGen(0)
	g1 := sealGen(1,
		mkUR("a.test", "192.0.2.1", core.CategoryUnknown, "198.51.100.1"),
		mkUR("b.test", "192.0.2.2", core.CategoryCorrect, "198.51.100.2"))
	g2 := sealGen(2,
		mkUR("a.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.1"))

	l.Append(Diff(g0, g1)) // 2 appeared -> seqs 1, 2
	l.Append(Diff(g1, g2)) // 1 reclassified + 1 removed -> seqs 3, 4

	if len(l.events) != 4 || l.LastSeq() != 4 {
		t.Fatalf("len=%d lastSeq=%d, want 4/4", len(l.events), l.LastSeq())
	}
	all, truncated := l.Since(0, 0)
	if truncated || len(all) != 4 {
		t.Fatalf("Since(0) = %d events, truncated=%v", len(all), truncated)
	}
	for i, e := range all {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	tail, _ := l.Since(2, 0)
	if len(tail) != 2 || tail[0].Seq != 3 {
		t.Errorf("Since(2) = %+v", tail)
	}
	capped, _ := l.Since(0, 3)
	if len(capped) != 3 {
		t.Errorf("Since(0, max=3) = %d events", len(capped))
	}
	if past, truncated := l.Since(math.MaxUint64, 0); truncated || len(past) != 0 {
		t.Errorf("Since(MaxUint64) = %d events, truncated=%v; want 0, false", len(past), truncated)
	}
}

// sameEvents reports whether two diffs describe the same changes (sequence
// stamps excluded — the log assigns those at append time).
func sameEvents(d, o *GenDiff) bool {
	if len(d.Events) != len(o.Events) {
		return false
	}
	for i := range d.Events {
		a, b := d.Events[i], o.Events[i]
		a.Seq, b.Seq = 0, 0
		if a != b {
			return false
		}
	}
	return true
}
