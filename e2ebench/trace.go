package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (no span is recorded inside the program).
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Iter   int64            // executor iteration, -1 when none applies
	Args   map[string]int64 // counter deltas read at the span's boundaries
	closed bool
}

// tracer keeps the spans of the traced runs of one benchmark process in
// memory. A nil *tracer records nothing, so untraced runs share the code
// path at the cost of one branch per call.
type tracer struct {
	epoch time.Time
	runs  [][]span // runs[i] holds the spans of run id i+1; the last is current
	stack []int    // open span ids of the current run
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// startRun opens a new run id; later spans belong to it.
func (t *tracer) startRun() {
	if t == nil {
		return
	}
	t.runs = append(t.runs, nil)
	t.stack = t.stack[:0]
}

// current returns the spans of the current run.
func (t *tracer) current() []span { return t.runs[len(t.runs)-1] }

// begin opens a span nested in the innermost open span and returns its id.
func (t *tracer) begin(name string, iter int64) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	run := len(t.runs) - 1
	id := len(t.runs[run]) + 1
	t.runs[run] = append(t.runs[run], span{
		ID: id, Parent: parent, Name: name, Start: time.Since(t.epoch), Iter: iter,
	})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (and any span left open inside it).
func (t *tracer) end(id int) { t.endWith(id, nil) }

// endWith closes span id and attaches the counter deltas read at its
// boundaries.
func (t *tracer) endWith(id int, args map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	spans := t.current()
	for len(t.stack) > 0 {
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		s := &spans[top-1]
		s.End, s.closed = now, true
		if top == id {
			s.Args = args
			return
		}
	}
}

// total sums the durations of the current run's closed spans named name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	var d time.Duration
	for _, s := range t.current() {
		if s.closed && s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// traceEvent is one Chrome trace-event ("X" complete event or "M"
// metadata), the format Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // µs
	Dur  float64        `json:"dur,omitempty"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores every traced run as Chrome trace-event JSON at path: one
// process per run (pid = run id), spans as complete events whose args
// carry the span id, its parent, the run id and, for executor spans, the
// iteration. meta lands in otherData.
func (t *tracer) write(path string, meta map[string]string) error {
	doc := struct {
		TraceEvents     []traceEvent      `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}{DisplayTimeUnit: "ms", OtherData: meta}
	for i, spans := range t.runs {
		run := i + 1
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: run,
			Args: map[string]any{"name": fmt.Sprintf("traced run %d (coordinator)", run)},
		})
		for _, s := range spans {
			if !s.closed {
				continue
			}
			args := map[string]any{"span_id": s.ID, "parent": s.Parent, "run": run}
			if s.Iter >= 0 {
				args["iter"] = s.Iter
			}
			for k, v := range s.Args {
				args[k] = v
			}
			doc.TraceEvents = append(doc.TraceEvents, traceEvent{
				Name: s.Name, Ph: "X", Pid: run, Tid: 1, Args: args,
				Ts:  float64(s.Start) / float64(time.Microsecond),
				Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
