package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. ID links the spans of one request, round or epoch; Parent
// is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix up to the first dot: "catalog" for
// "catalog.SolveCold".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. All methods are safe
// for concurrent use and do nothing on a nil tracer, so untraced code
// paths call them unconditionally.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the offset from the tracer's start, the clock spans use.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// at converts a wall-clock instant to the tracer's clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.base)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = end
}

// add records a span whose times were measured elsewhere.
func (t *tracer) add(name string, id int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: t.at(start), End: t.at(end)})
	return len(t.spans) - 1
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes returns each layer's self time: the summed durations of its
// spans minus the part of each span its child spans cover. Overlapping
// children (concurrent requests) are counted once.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][][2]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		covered := unionWithin(children[i], s.Start, s.End)
		self[s.layer()] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// unionWithin is the length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var covered int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return covered
}

// write saves every span, and the self time per layer, as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64, host string) error {
	self := t.selfTimes()
	selfS := make(map[string]float64, len(self))
	for k, v := range self {
		selfS[k] = v.Seconds()
	}
	t.mu.Lock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Host     string             `json:"host"`
		SelfS    map[string]float64 `json:"self_s"`
		Spans    []span             `json:"spans"`
	}{workload, seed, host, selfS, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// report records the span count and prints the self time per layer.
func (t *tracer) report(b *bench) {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	var sum time.Duration
	for k, v := range self {
		layers = append(layers, k)
		sum += v
	}
	sort.Strings(layers)
	for _, l := range layers {
		b.notes["self_s."+l] = fmt.Sprintf("%.6f (%.1f%%)", self[l].Seconds(), 100*ratio(float64(self[l]), float64(sum)))
	}
	t.mu.Lock()
	n := len(t.spans)
	t.mu.Unlock()
	b.setLayer("trace.spans", float64(n), 1)
}
