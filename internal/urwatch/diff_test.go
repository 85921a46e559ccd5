package urwatch

import (
	"testing"

	"repro/internal/core"
)

func TestDiffSyntheticPair(t *testing.T) {
	// prev: k1 (unknown), k2 (correct).  next: k1 reclassified malicious,
	// k2 gone, k3 appeared.
	k1a := mkVerdict("a.test", "192.0.2.1", core.CategoryUnknown, "198.51.100.1")
	k1b := mkVerdict("a.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.1")
	k2 := mkVerdict("b.test", "192.0.2.2", core.CategoryCorrect, "198.51.100.2")
	k3 := mkVerdict("c.test", "192.0.2.3", core.CategoryProtective, "198.51.100.3")

	prev := sealGen(t, 1, k1a, k2)
	next := sealGen(t, 2, k1b, k3)
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
	if e := byKind[EventReclassified]; e.Key != k1b.Key() ||
		e.Old != core.CategoryUnknown.String() || e.New != core.CategoryMalicious.String() {
		t.Errorf("class_changed event = %+v", e)
	}
	if e := byKind[EventRemoved]; e.Key != k2.Key() || e.Old != core.CategoryCorrect.String() || e.New != "" {
		t.Errorf("ur_removed event = %+v", e)
	}
	if e := byKind[EventAppeared]; e.Key != k3.Key() || e.New != core.CategoryProtective.String() || e.Old != "" {
		t.Errorf("ur_appeared event = %+v", e)
	}
	pd := d.ByProvider["TestDNS"]
	if pd.Appeared != 1 || pd.Removed != 1 || pd.Reclassified != 1 {
		t.Errorf("provider delta = %+v", pd)
	}

	// Determinism: the from-scratch diff of the same pair is identical.
	if !d.Same(Diff(prev, next)) {
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
	v := mkVerdict("a.test", "192.0.2.1", core.CategoryUnknown, "198.51.100.1")
	prev := sealGen(t, 1, v)
	next := sealGen(t, 2, mkVerdict("a.test", "192.0.2.1", core.CategoryUnknown, "198.51.100.1"))
	d := Diff(prev, next)
	if len(d.Events) != 0 {
		t.Errorf("identical generations produced %d events: %+v", len(d.Events), d.Events)
	}
}

func TestEventLogSince(t *testing.T) {
	l := NewEventLog()
	g0 := sealGen(t, 0)
	g1 := sealGen(t, 1,
		mkVerdict("a.test", "192.0.2.1", core.CategoryUnknown, "198.51.100.1"),
		mkVerdict("b.test", "192.0.2.2", core.CategoryCorrect, "198.51.100.2"))
	g2 := sealGen(t, 2,
		mkVerdict("a.test", "192.0.2.1", core.CategoryMalicious, "198.51.100.1"))

	l.Append(Diff(g0, g1)) // 2 appeared -> seqs 1, 2
	l.Append(Diff(g1, g2)) // 1 reclassified + 1 removed -> seqs 3, 4

	if l.Len() != 4 || l.LastSeq() != 4 {
		t.Fatalf("len=%d lastSeq=%d, want 4/4", l.Len(), l.LastSeq())
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
}
