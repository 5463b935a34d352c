package main

// In-memory spans recorded by the traced run (--trace 1) around the
// benchmark's calls into each layer's public functions. They are written
// to .bench_build/spans-<workload>-<seed>.json when the run ends, and a
// per-layer self-time summary goes to standard error.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Op     int    `json:"op"`     // operation id shared by one operation's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer records spans; a nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTimes is one layer's total and self time over a run.
type layerTimes struct {
	count       int
	total, self time.Duration
}

// summary folds the spans by name. A span's self time is its duration
// minus the part of its interval its children cover.
func (t *tracer) summary() map[string]*layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTimes{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.Name] = lt
		}
		d := time.Duration(s.End - s.Start)
		lt.count++
		lt.total += d
		lt.self += d - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if open {
		total += curE - curS
	}
	return time.Duration(total)
}

// write saves the spans as JSON under .bench_build and prints the
// self-time table to standard error.
func (t *tracer) write(workload string, seed int64) error {
	sum := t.summary()
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		lt := sum[n]
		fmt.Fprintf(os.Stderr, "%-28s %8d %12.3f %12.3f\n", n, lt.count, ms(lt.total), ms(lt.self))
	}
	t.mu.Lock()
	blob, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", workload, seed)), blob, 0o644)
}
