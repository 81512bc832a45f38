package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans caps the in-memory span log; spans beyond it are counted, not
// kept, so a long traced run cannot grow without bound.
const maxSpans = 1 << 18

// span is one timed call into a public layer function.
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int32         // index of the enclosing span, -1 for none
	tid        int32         // rank for per-rank calls, 0 otherwise
}

// tracer records spans in memory and writes them at exit. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	dropped  int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent, tid int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, tid: tid})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds a span that is already over: it ended now and lasted d.
func (t *tracer) record(name string, d time.Duration, parent int32) {
	if t == nil {
		return
	}
	id := t.begin(name, parent, 0)
	if id < 0 {
		return
	}
	t.mu.Lock()
	s := &t.spans[id]
	s.end = s.start
	s.start -= d
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + t.dropped
}

func (t *tracer) path(seed int64) string {
	return filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", t.workload, seed))
}

// write stores the spans in the Chrome trace-event format, which
// chrome://tracing and Perfetto open directly; the run stamp rides along
// as trace metadata.
func (t *tracer) write(seed int64, stamp map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", PID: 1, TID: s.tid,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "workload": t.workload},
		})
	}
	dropped := t.dropped
	t.mu.Unlock()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(t.path(seed))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{
		"traceEvents": events,
		"otherData":   map[string]any{"stamp": stamp, "dropped_spans": dropped},
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
