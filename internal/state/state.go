// Package state provides the keyed operator state store backing
// BriskStream's stateful operators and the window subsystem. The paper's
// evaluation workloads are dominated by keyed aggregation — WC's word
// counts, SD's per-device statistics, LR's per-segment minute statistics
// — and each used to hand-roll an unbounded map. Map stores entries
// behind a pool so the steady-state access path matches the engine's
// zero-allocation discipline (PR 2): looking up an existing key
// allocates nothing, and deleting a key recycles its entry (including
// any internal capacity the value accumulated — slices, nested maps)
// for the next key instead of handing it to the garbage collector.
package state

import "slices"

// Map is a keyed state store with pooled, type-stable entries. Entries
// are *V pointers that remain valid (and stable) until Delete or Clear;
// after recycling, an entry is handed out again by GetOrCreate with its
// previous contents intact, so callers reset it through their own
// initializer — which lets values retain internal capacity across
// lives (the whole point of pooling).
//
// Map is not safe for concurrent use: like all operator state it
// belongs to one task goroutine. Once RangeSorted has run, the Map also
// keeps one (key, entry pointer) pair per key for the sorted order: 16
// bytes per entry for int64 keys.
type Map[K comparable, V any] struct {
	m    map[K]*V
	free []*V

	// RangeSorted's order cache. While sorted is set, order holds every
	// key that was live at the last sorted pass, with its entry, in that
	// pass's order, and added holds the keys created since, so the next
	// pass sorts only those and merges them in. Delete and Clear reset
	// sorted, and the next pass rebuilds order from the map. Until the
	// first pass nothing is tracked, so maps that are never ranged in
	// order pay nothing.
	order  []sortedEntry[K, V]
	added  []K
	sorted bool
}

// sortedEntry is one slot of the RangeSorted order cache.
type sortedEntry[K comparable, V any] struct {
	k K
	e *V
}

// NewMap creates an empty store.
func NewMap[K comparable, V any]() *Map[K, V] {
	return &Map[K, V]{m: make(map[K]*V)}
}

// Get returns the entry for k, or nil if absent. Lookup of an existing
// key performs no allocation.
func (s *Map[K, V]) Get(k K) *V { return s.m[k] }

// GetOrCreate returns the entry for k, creating it from the free list
// (or fresh, if the pool is empty) when absent. The boolean reports
// whether the entry was just created — a created entry holds whatever
// its previous life left behind, and the caller must initialize it.
func (s *Map[K, V]) GetOrCreate(k K) (*V, bool) {
	if e, ok := s.m[k]; ok {
		return e, false
	}
	var e *V
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = new(V)
	}
	s.m[k] = e
	if s.sorted {
		s.added = append(s.added, k)
	}
	return e, true
}

// Delete removes k and recycles its entry. The caller must not touch
// the entry pointer after deleting the key.
func (s *Map[K, V]) Delete(k K) {
	e, ok := s.m[k]
	if !ok {
		return
	}
	delete(s.m, k)
	s.free = append(s.free, e)
	s.sorted = false
}

// Len returns the number of live keys.
func (s *Map[K, V]) Len() int { return len(s.m) }

// Range calls f for every live (key, entry) pair until f returns false.
// Iteration order is unspecified (callers needing deterministic output
// must sort; the window operators do). f must not Delete other keys or
// create new ones mid-iteration.
func (s *Map[K, V]) Range(f func(k K, e *V) bool) {
	for k, e := range s.m {
		if !f(k, e) {
			return
		}
	}
}

// RangeSorted calls f for every live (key, entry) pair in the order
// defined by compare, until f returns false. Snapshot encodings use it:
// a checkpoint of keyed state must be byte-stable, and Range's Go map
// order is not. f must not create or delete keys mid-iteration.
//
// The Map keeps the sorted order between calls, so a pass costs:
//   - O(n), with no allocation, when no key was created or deleted
//     since the previous pass;
//   - O(n + a log a) when only a keys were created: the new keys are
//     sorted and merged into the kept order;
//   - a full O(n log n) sort after any Delete or Clear.
//
// compare may differ between calls. Before reusing the kept order, the
// pass checks (n-1 compare calls) that it is still ascending under this
// call's compare, and re-sorts from scratch if it is not.
func (s *Map[K, V]) RangeSorted(compare func(a, b K) int, f func(k K, e *V) bool) {
	switch {
	case !s.sorted || !s.ascending(compare):
		s.rebuild(compare)
	case len(s.added) > 0:
		s.mergeAdded(compare)
	}
	for _, p := range s.order {
		if !f(p.k, p.e) {
			return
		}
	}
}

// ascending reports whether the kept order is sorted under compare.
func (s *Map[K, V]) ascending(compare func(a, b K) int) bool {
	for i := 1; i < len(s.order); i++ {
		if compare(s.order[i-1].k, s.order[i].k) > 0 {
			return false
		}
	}
	return true
}

// rebuild sorts every live (key, entry) pair into the order cache.
func (s *Map[K, V]) rebuild(compare func(a, b K) int) {
	s.order = s.order[:0]
	for k, e := range s.m {
		s.order = append(s.order, sortedEntry[K, V]{k, e})
	}
	slices.SortFunc(s.order, func(a, b sortedEntry[K, V]) int { return compare(a.k, b.k) })
	s.added = s.added[:0]
	s.sorted = true
}

// mergeAdded sorts the keys created since the last pass and merges them
// into the kept order, back to front and in place.
func (s *Map[K, V]) mergeAdded(compare func(a, b K) int) {
	slices.SortFunc(s.added, compare)
	n, a := len(s.order), len(s.added)
	s.order = slices.Grow(s.order, a)[:n+a]
	i := n - 1
	for j, w := a-1, n+a-1; j >= 0; w-- {
		if i >= 0 && compare(s.order[i].k, s.added[j]) > 0 {
			s.order[w] = s.order[i]
			i--
		} else {
			k := s.added[j]
			s.order[w] = sortedEntry[K, V]{k, s.m[k]}
			j--
		}
	}
	s.added = s.added[:0]
}

// Clear removes every key, recycling all entries. The map's buckets and
// the entries' internal capacity are retained.
func (s *Map[K, V]) Clear() {
	for k, e := range s.m {
		delete(s.m, k)
		s.free = append(s.free, e)
	}
	s.sorted = false
}
