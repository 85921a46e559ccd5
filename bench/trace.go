package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the harness made into a layer. Spans are recorded from
// the harness's own files, around the public calls; spans inside the
// program are a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Rep    int    `json:"rep"`    // repetition (or request) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since tracer creation
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled by finish
}

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced pass runs the same code without the bookkeeping.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, rep int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Rep: rep, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// child records an already-measured interval under parent, offset from the
// parent's start — how Result.Stages (durations since the run began) become
// child spans of a Pipeline.Run span.
func (t *tracer) child(name string, parent int, offset, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Rep: p.Rep, Name: name,
		Start: p.Start + offset.Nanoseconds(), End: p.Start + (offset + d).Nanoseconds()})
}

// selfTimes fills each span's self time: its duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (the pipeline's stages do), so the covered part is the union of their
// intervals clipped to the parent, not the sum of their durations.
func selfTimes(spans []span) {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		cur := s.Start
		for _, k := range iv {
			lo, hi := max(k[0], cur), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write closes the trace and stores it as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
