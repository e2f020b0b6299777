package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval around a call into a layer's public
// functions. Spans of one request (a burst, a control op) share Req;
// Parent indexes the causing span in the same tracer (-1 for roots).
type span struct {
	Name   string
	Parent int32
	Req    int64
	Start  int64 // ns since the tracer's base
	End    int64
}

// agg accumulates every span of one name, kept or not.
type agg struct {
	N     int64
	Total int64 // summed duration, ns
	Self  int64 // summed duration minus the time child spans cover, ns
}

// tracer keeps spans in memory (one per goroutine, merged at the end)
// and aggregates per-name durations for the per-layer table. Only
// sampled requests keep their spans, so long runs stay bounded; the
// aggregates cover every span.
type tracer struct {
	base  time.Time
	spans []span
	agg   map[string]*agg
	// keepEvery keeps the spans of one request in keepEvery.
	keepEvery int64
}

// maxKeptSpans bounds each tracer's span buffer.
const maxKeptSpans = 1 << 16

func newTracer(base time.Time, keepEvery int64) *tracer {
	return &tracer{base: base, agg: make(map[string]*agg), keepEvery: keepEvery}
}

// now returns the tracer clock in ns.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// keep reports whether request req's spans are stored.
func (t *tracer) keep(req int64) bool {
	return t != nil && len(t.spans) < maxKeptSpans && req%t.keepEvery == 0
}

// record adds one span: childNs is the time its children cover, so
// Self = duration - childNs. It returns the stored span's index, or -1
// when the request is not sampled.
func (t *tracer) record(name string, parent int32, req, start, end, childNs int64, keep bool) int32 {
	a := t.agg[name]
	if a == nil {
		a = &agg{}
		t.agg[name] = a
	}
	a.N++
	a.Total += end - start
	a.Self += end - start - childNs
	if !keep {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: start, End: end})
	return int32(len(t.spans) - 1)
}

// timed runs f as one root span (plus any children f records through
// the tracer) and returns its duration in ns.
func (t *tracer) timed(name string, req int64, f func()) int64 {
	start := t.now()
	f()
	end := t.now()
	t.record(name, -1, req, start, end, 0, true)
	return end - start
}

// merge folds other's spans and aggregates into t.
func (t *tracer) merge(other *tracer) {
	if other == nil {
		return
	}
	off := int32(len(t.spans))
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
	for name, a := range other.agg {
		b := t.agg[name]
		if b == nil {
			b = &agg{}
			t.agg[name] = b
		}
		b.N += a.N
		b.Total += a.Total
		b.Self += a.Self
	}
}

// get returns the aggregate of a span name (zero when never recorded).
func (t *tracer) get(name string) agg {
	if a := t.agg[name]; a != nil {
		return *a
	}
	return agg{}
}

// writeSpans writes the kept spans as JSON lines (name, start, end,
// parent span id, request id), ids being line numbers from 0.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := struct {
			ID     int    `json:"id"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int32  `json:"parent"`
			Req    int64  `json:"request"`
		}{i, s.Name, s.Start, s.End, s.Parent, s.Req}
		if err := enc.Encode(rec); err != nil {
			fh.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	layer string
	value float64
	unit  string
	note  string
}

// printLayerTable renders the per-layer breakdown.
func printLayerTable(w io.Writer, title string, rows []layerRow) {
	fmt.Fprintf(w, "%s\n", title)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].layer < rows[j].layer })
	for _, r := range rows {
		fmt.Fprintf(w, "  %-32s %14.3f %-7s %s\n", r.layer, r.value, r.unit, r.note)
	}
}
