package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function. This benchmark
// measures layers from outside, so a span's parent is the layer that would
// have made the call inside a real request; spans of one probe query (or one
// request) share a trace id.
type span struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder times
// the call and records nothing, which is the untraced run.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// timed runs fn and returns its duration in µs.
func timed(fn func()) float64 { return (*recorder)(nil).time(0, "", "", fn) }

// time runs fn as one span and returns its duration in µs.
func (r *recorder) time(trace int, name, parent string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	if r != nil {
		r.spans = append(r.spans, span{trace, name, parent, start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()})
	}
	return micros(end.Sub(start))
}

// durations lists the µs of every span called name, in recording order.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Run   map[string]any `json:"run"`
		Spans []span         `json:"spans"`
	}{header, r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
