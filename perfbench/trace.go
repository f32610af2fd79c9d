package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one job share its id;
// a span's layer is its name up to the first dot.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so untraced phases call it freely.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // spans[i].ID == i+1
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) start(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

func (t *tracer) setJob(id int, job string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Job = job
}

func (t *tracer) rename(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Name = name
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"` // of all self time in the table
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	var total float64
	for _, s := range spans {
		self := float64(s.End-s.Start) - float64(covered(s, children[s.ID]))
		layer, _, _ := strings.Cut(s.Name, ".")
		r := rows[layer]
		if r == nil {
			r = &layerTime{Layer: layer}
			rows[layer] = r
		}
		r.Spans++
		r.SelfMS += self / 1e6
		total += self / 1e6
	}
	var out []layerTime
	for _, r := range rows {
		if total > 0 {
			r.Share = r.SelfMS / total
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			reach = hi
		}
	}
	return sum
}

// traceFile is the machine-readable output of one traced run: the spans of
// the HTTP phase (op and http layers, client side) and of the layer replay,
// each with its own self-time table.
type traceFile struct {
	Workload       string      `json:"workload"`
	Seed           int64       `json:"seed"`
	HTTPSelfTime   []layerTime `json:"http_self_time"`
	ReplaySelfTime []layerTime `json:"replay_self_time"`
	HTTPSpans      []span      `json:"http_spans"`
	ReplaySpans    []span      `json:"replay_spans"`
}

// writeTrace writes dir/trace_<workload>.json and prints both tables.
func writeTrace(dir string, w workload, seed int64, httpSpans, replaySpans []span, out io.Writer) error {
	tf := traceFile{
		Workload: w.name, Seed: seed,
		HTTPSelfTime: selfTimes(httpSpans), ReplaySelfTime: selfTimes(replaySpans),
		HTTPSpans: httpSpans, ReplaySpans: replaySpans,
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "trace_"+w.name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	printSelfTimes(out, "HTTP phase", len(httpSpans), tf.HTTPSelfTime)
	printSelfTimes(out, "layer replay", len(replaySpans), tf.ReplaySelfTime)
	return nil
}

func printSelfTimes(out io.Writer, title string, n int, rows []layerTime) {
	fmt.Fprintf(out, "self time per layer, %s (%d spans):\n", title, n)
	fmt.Fprintf(out, "  %-10s %8s %12s %7s\n", "layer", "spans", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-10s %8d %12.3f %6.1f%%\n", r.Layer, r.Spans, r.SelfMS, 100*r.Share)
	}
}
