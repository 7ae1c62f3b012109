package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// span is one recorded interval around a call into the program. Spans of
// one operation share a root; parent 0 marks a root.
type span struct {
	name      string
	id        int64
	parent    int64
	root      int64
	start     time.Duration // since the tracer started
	dur       time.Duration
	attrs     map[string]string
	completed bool
}

// tracer records spans in memory; write dumps them at the end of the run as
// a Chrome/Perfetto trace. A nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	root := id
	if parent > 0 {
		root = t.spans[parent-1].root
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, root: root, start: now})
	return id
}

// end closes span id, attaching attrs (key, value pairs).
func (t *tracer) end(id int64, attrs ...string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.dur = now - s.start
	s.completed = true
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.attrs == nil {
			s.attrs = map[string]string{}
		}
		s.attrs[attrs[i]] = attrs[i+1]
	}
}

// record adds a finished child span of known duration ending now, for seams
// that report a duration after the fact (PhaseHook).
func (t *tracer) record(name string, parent int64, d time.Duration) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name: name, id: int64(len(t.spans) + 1), parent: parent,
		root: t.spans[parent-1].root, start: now - d, dur: d, completed: true,
	})
}

// durations returns the durations in ms of every completed span named name
// whose attribute key equals value (key "" matches all).
func (t *tracer) durations(name, key, value string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.completed && s.name == name && (key == "" || s.attrs[key] == value) {
			out = append(out, ms(s.dur))
		}
	}
	return out
}

// write dumps every span as Chrome trace-event JSON: one "X" event per span,
// one track per root operation, span and parent ids in the args.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int64             `json:"tid"`
		Args map[string]string `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if !s.completed {
			continue
		}
		args := map[string]string{"id": strconv.FormatInt(s.id, 10), "parent": strconv.FormatInt(s.parent, 10)}
		for k, v := range s.attrs {
			args[k] = v
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.root,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
