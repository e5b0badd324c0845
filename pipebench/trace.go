package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// tracer records one span per call the benchmark makes into the program,
// plus the benchmark's own phases around them. Spans stay in memory and
// are written out once the run ends. A nil *tracer is the untraced mode:
// every method is a no-op, so the end-to-end passes carry no tracing
// work beyond a nil check.
type tracer struct {
	origin time.Time
	spans  []span
	rt     []metrics.Sample // allocs, heap objects
}

// span is one timed interval. parent is the index of the enclosing span,
// or -1 for a root. counts hold the work recorded at the same boundary
// (calls made, bytes allocated, edges removed...).
type span struct {
	Name   string             `json:"name"`
	ID     int32              `json:"id"`
	Parent int32              `json:"parent"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`

	alloc0 uint64
}

const root int32 = -1

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		rt: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/memory/classes/heap/objects:bytes"},
		},
	}
}

func (t *tracer) readRT() (allocs, heap uint64) {
	metrics.Read(t.rt)
	return t.rt[0].Value.Uint64(), t.rt[1].Value.Uint64()
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return root
	}
	a, _ := t.readRT()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(t.origin)), alloc0: a})
	return id
}

// end closes span id, recording the bytes allocated while it was open and
// the live heap at its close.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.origin))
	a, h := t.readRT()
	s := &t.spans[id]
	s.End = end
	t.count(id, "alloc_bytes", float64(a-s.alloc0))
	t.count(id, "heap_bytes", float64(h))
}

// count attaches a named count to span id.
func (t *tracer) count(id int32, name string, v float64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	if s.Counts == nil {
		s.Counts = make(map[string]float64, 4)
	}
	s.Counts[name] = v
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// named returns the spans called name, in the order they were opened.
func (t *tracer) named(name string) []*span {
	var out []*span
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, &t.spans[i])
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := make([][]int32, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	self := make(map[string]time.Duration)
	for i := range t.spans {
		s := &t.spans[i]
		covered := coveredNanos(t.spans, kids[i], s.Start, s.End)
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// coveredNanos is the length of the union of the child intervals,
// clipped to [lo, hi].
func coveredNanos(spans []span, kids []int32, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{max(spans[k].Start, lo), min(spans[k].End, hi)})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores the spans as JSON lines under dir, after one header line
// stamping the host and the input, and returns the file's path.
func (t *tracer) write(dir, base string, header map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return "", err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// gcState is a snapshot of the collector's cumulative counters, taken at
// phase boundaries of the traced pass.
type gcState struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcState {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcState{cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}

func (a gcState) minus(b gcState) gcState {
	return gcState{a.cycles - b.cycles, a.pauseNs - b.pauseNs}
}

func (a gcState) plus(b gcState) gcState {
	return gcState{a.cycles + b.cycles, a.pauseNs + b.pauseNs}
}

func (a gcState) String() string {
	return fmt.Sprintf("gc_cycles=%d gc_pause_ms=%.3f", a.cycles, float64(a.pauseNs)/1e6)
}
