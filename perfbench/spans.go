package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// spanLog keeps the benchmark's own spans in memory, around its calls
// into the program (engine.New, Run, the planner, Store.Save, the
// generator), and writes them as Chrome trace events when the run
// ends. A nil *spanLog records nothing: untraced runs pay one nil
// check per call site.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	start, end time.Duration // since t0; end 0 while open
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 when l is nil).
func (l *spanLog) begin(name string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, start: time.Since(l.t0)})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].end = time.Since(l.t0)
	l.mu.Unlock()
}

// writeChrome writes the spans as complete ("X") Chrome trace events,
// one track per span name.
func (l *spanLog) writeChrome(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		tid, ok := tids[s.name]
		if !ok {
			tid = len(tids) + 1
			tids[s.name] = tid
		}
		end := max(s.end, s.start)
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(end-s.start) / 1e3,
			Pid: 1, Tid: tid,
		})
	}
	return json.NewEncoder(w).Encode(events)
}
