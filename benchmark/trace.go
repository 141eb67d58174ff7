package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/why-not-xai/emigre/client"
)

// Span names: the boundaries the harness itself constructs. Nothing
// below server.handle is reachable from outside the program, so deeper
// layers are timed by calling their entry points directly (layers.go).
const (
	spanClient = "client.call"
	spanRouter = "router.handle"
	spanServer = "server.handle"
)

// span is one timed interval at a layer boundary. Spans of one request
// share RID, the X-Emigre-Request-Id the client sends and the router
// forwards.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: none
	Name   string        `json:"name"`
	RID    string        `json:"rid"`
	Start  time.Duration `json:"start_ns"` // from the tracer's start
	End    time.Duration `json:"end_ns"`
}

func (s span) duration() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	start time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// reset drops what was recorded so far: the warm-up's spans are not
// the replay's.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
}

// record keeps one span. Requests without an ID - the router's
// readiness probes - belong to no op and are dropped.
func (t *tracer) record(name, rid string, start, end time.Time) {
	if t == nil || rid == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, RID: rid,
		Start: start.Sub(t.start), End: end.Sub(t.start),
	})
}

// wrap records a span of the given name around every request next
// serves.
func (t *tracer) wrap(name string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(name, r.Header.Get(client.RequestIDHeader), start, time.Now())
	})
}

// parentOf names the layer that calls into each layer.
var parentOf = map[string][]string{
	spanServer: {spanRouter, spanClient},
	spanRouter: {spanClient},
}

// link sets every span's Parent: the span of the same request, one
// layer up, whose interval contains it. A hedged request has several
// server.handle spans under one router.handle.
func (t *tracer) link() {
	byRID := map[string][]int{}
	for i, s := range t.spans {
		byRID[s.RID] = append(byRID[s.RID], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		for _, parent := range parentOf[s.Name] {
			for _, j := range byRID[s.RID] {
				p := t.spans[j]
				if p.Name == parent && p.Start <= s.Start && s.End <= p.End {
					s.Parent = p.ID
				}
			}
			if s.Parent != 0 {
				break
			}
		}
	}
}

// selfTimes returns, for every span of the given name, its duration
// minus the part of it its first-finished child covers: for a hedged
// request that child is the leg that won.
func (t *tracer) selfTimes(name string) []time.Duration {
	child := map[int]span{}
	for _, s := range t.spans {
		if c, ok := child[s.Parent]; s.Parent != 0 && (!ok || s.End < c.End) {
			child[s.Parent] = s
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if c, ok := child[s.ID]; ok {
			out = append(out, s.duration()-c.duration())
		}
	}
	return out
}

// durations returns the duration of every span of the given name, keyed
// by request.
func (t *tracer) durations(name string) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.RID] = s.duration()
		}
	}
	return out
}

// write stores the environment stamp and every span as JSON lines.
func (t *tracer) write(path string, env environment) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // a failed write is reported by Flush below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(env); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
