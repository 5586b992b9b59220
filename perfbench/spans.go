package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call recorded by the benchmark around a call into
// the program. Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory. A nil *spanLog records
// nothing, so untraced code paths pass nil.
type spanLog struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 when none
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), open: -1} }

func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Parent: l.open, StartNS: time.Since(l.t0).Nanoseconds()})
	l.open = len(l.spans) - 1
	return l.open
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].EndNS = time.Since(l.t0).Nanoseconds()
	l.open = l.spans[id].Parent
}

// selfNS sums, per span name, each span's duration minus the part its
// child spans cover.
func (l *spanLog) selfNS() map[string]int64 {
	self := make(map[string]int64)
	for _, s := range l.spans {
		self[s.Name] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[l.spans[s.Parent].Name] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// write stores the spans as a JSON document together with the run's
// environment.
func (l *spanLog) write(path string, env map[string]string) error {
	b, err := json.Marshal(struct {
		Env   map[string]string `json:"env"`
		Spans []span            `json:"spans"`
	}{env, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
