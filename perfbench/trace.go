package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call into a layer. Spans of one operation share a
// request id; Parent is the id of the span that caused it (0 for an
// operation's root, or for a shard call the coordinator made, since the
// coordinator does not forward the request id).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"request_id"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil or disabled tracer records nothing, so untraced code paths pay one
// nil check and one atomic load per span site.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// newRequest returns a fresh request id (0 when not recording).
func (t *tracer) newRequest() int64 {
	if !t.enabled() {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span; it returns nil when not recording.
func (t *tracer) begin(name string, parent, req int64) *span {
	if !t.enabled() {
		return nil
	}
	return &span{Name: name, ID: t.ids.Add(1), Parent: parent, Req: req, Start: int64(time.Since(t.t0))}
}

// child opens a span under parent (nil parent: nil child).
func (t *tracer) child(name string, parent *span) *span {
	if parent == nil {
		return nil
	}
	return t.begin(name, parent.ID, parent.Req)
}

// end closes and records s (nil: no-op).
func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSelfShare is the share of operation time (root spans) covered by
// the layer spans directly under the roots: 1 − Σ root self time / Σ
// root time. What is left is the benchmark's own client work and, for
// requests, the loopback transport.
func (t *tracer) layerSelfShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var total, self int64
	for _, s := range t.spans {
		if s.Parent == 0 && s.Req != 0 {
			d := s.End - s.Start
			total += d
			self += max(0, d-covered[s.ID])
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(self)/float64(total)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
