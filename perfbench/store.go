package main

import (
	"sync"
	"time"

	"briskstream/internal/checkpoint"
)

// prunableStore is the store surface the coordinator uses: it prunes
// older checkpoints after each save when the store can.
type prunableStore interface {
	checkpoint.Store
	Prune(keepFrom uint64) error
}

// timedStore passes every call through to the wrapped store and times
// Save, recording each checkpoint's payload size and, in the traced
// run, a span per save.
type timedStore struct {
	inner prunableStore
	spans *spanLog

	mu    sync.Mutex
	saves []time.Duration
	bytes []int64
}

func (s *timedStore) Save(cp *checkpoint.Checkpoint) error {
	span := s.spans.begin("checkpoint.Store.Save")
	t0 := time.Now()
	err := s.inner.Save(cp)
	d := time.Since(t0)
	s.spans.end(span)
	var n int64
	for _, b := range cp.Tasks {
		n += int64(len(b))
	}
	s.mu.Lock()
	s.saves = append(s.saves, d)
	s.bytes = append(s.bytes, n)
	s.mu.Unlock()
	return err
}

func (s *timedStore) Load(id uint64) (*checkpoint.Checkpoint, error) { return s.inner.Load(id) }

func (s *timedStore) Latest() (*checkpoint.Checkpoint, error) { return s.inner.Latest() }

func (s *timedStore) Prune(keepFrom uint64) error { return s.inner.Prune(keepFrom) }

// stats returns the saves so far: their median time (ms) and mean size.
func (s *timedStore) stats() (saves int, medianMs, meanBytes float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.saves) == 0 {
		return 0, 0, 0
	}
	ms := make([]float64, len(s.saves))
	var total int64
	for i, d := range s.saves {
		ms[i] = float64(d) / 1e6
		total += s.bytes[i]
	}
	return len(s.saves), median(ms), float64(total) / float64(len(s.saves))
}
