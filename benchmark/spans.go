package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the driver around a call into a
// layer. parent indexes recorder.spans (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // since recorder.t0
	parent     int
}

// recorder is the driver's in-memory span recorder. It is only ever used
// from the driver goroutine, so the open-span stack gives each span its
// parent. A nil or disabled recorder runs the function and records nothing.
type recorder struct {
	on       bool
	workload string
	t0       time.Time
	spans    []span
	stack    []int
}

func newRecorder(on bool, workload string) *recorder {
	return &recorder{on: on, workload: workload, t0: time.Now()}
}

// do runs f inside a span named name.
func (r *recorder) do(name string, f func()) {
	if r == nil || !r.on {
		f()
		return
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, start: time.Since(r.t0), parent: parent})
	r.stack = append(r.stack, id)
	f()
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id].end = time.Since(r.t0)
}

// coverage is the share of the wall time of all spans named name that
// their direct children cover (1 when there is no such span).
func (r *recorder) coverage(name string) float64 {
	var total, covered time.Duration
	for _, s := range r.spans {
		if s.name == name {
			total += s.end - s.start
		}
		if s.parent >= 0 && r.spans[s.parent].name == name {
			covered += s.end - s.start
		}
	}
	if total == 0 {
		return 1
	}
	return float64(covered) / float64(total)
}

// chromeEvent is one Chrome trace_event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace_event JSON (loadable in
// ui.perfetto.dev). Self time is the span minus its direct children.
func (r *recorder) writeChrome(path string) error {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]any{
				"id": i, "parent": s.parent, "workload": r.workload,
				"self_us": us(s.end - s.start - child[i]),
			},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
