package main

import (
	"time"

	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// resultSink replaces each app's sink. It is batch-aware, so sink edges
// stay columnar as with the app's own sink; it reads the clock once per
// batch, takes each row's latency from its due time (the schedule of
// the record its Event names) and hands the rows to the app's checker.
// The engine runs one sink replica, so one goroutine owns all fields.
type resultSink struct {
	check checker
	sched *schedule
	// Latency is sampled for results whose Event is in [warm, n]: later
	// events are windows closed by the final watermark, not by a record.
	warm, n int64
	lat     hist
	// perSec splits the open-loop latency by the second its record was
	// due in (counted from the first measured record).
	perSec []hist
	last   time.Time // arrival of the latest result
}

func (s *resultSink) Process(_ engine.Collector, t *tuple.Tuple) error {
	now := time.Now()
	s.observe(int64(now.Sub(s.sched.start)), t.Event)
	s.last = now
	s.check.tuple(t)
	return nil
}

func (s *resultSink) ProcessBatch(_ engine.Collector, b *tuple.Batch) error {
	now := time.Now()
	ns := int64(now.Sub(s.sched.start))
	for r := 0; r < b.Len(); r++ {
		s.observe(ns, b.Event(r))
	}
	s.last = now
	s.check.batch(b)
	return nil
}

func (s *resultSink) observe(nowNs, ev int64) {
	if ev >= s.warm && ev <= s.n {
		due := s.sched.dueNs(ev)
		s.lat.observe(nowNs - due)
		if s.sched.period > 0 {
			sec := int((due - s.sched.dueNs(s.warm)) / 1e9)
			for sec >= len(s.perSec) {
				s.perSec = append(s.perSec, hist{})
			}
			s.perSec[sec].observe(nowNs - due)
		}
	}
}
