package state

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

type acc struct {
	count int64
	seen  map[int64]bool
}

func TestMapBasics(t *testing.T) {
	s := NewMap[string, acc]()
	if s.Get("a") != nil || s.Len() != 0 {
		t.Fatal("empty map not empty")
	}
	e, created := s.GetOrCreate("a")
	if !created || e == nil {
		t.Fatal("first GetOrCreate must create")
	}
	e.count = 7
	if got, created := s.GetOrCreate("a"); created || got != e {
		t.Fatal("second GetOrCreate must return the same entry")
	}
	if got := s.Get("a"); got != e || got.count != 7 {
		t.Fatal("Get lost the entry")
	}
	s.Delete("a")
	if s.Get("a") != nil || s.Len() != 0 {
		t.Fatal("Delete left the key")
	}
	s.Delete("a") // idempotent
}

func TestEntriesRecycleWithCapacity(t *testing.T) {
	s := NewMap[string, acc]()
	e, _ := s.GetOrCreate("a")
	e.seen = map[int64]bool{1: true, 2: true}
	s.Delete("a")
	// The recycled entry must come back with its previous contents (the
	// caller's initializer clears but keeps capacity).
	e2, created := s.GetOrCreate("b")
	if !created {
		t.Fatal("expected creation")
	}
	if e2 != e {
		t.Fatal("entry was not recycled from the pool")
	}
	if e2.seen == nil || len(e2.seen) != 2 {
		t.Fatal("recycled entry lost its internal state (capacity reuse impossible)")
	}
	clear(e2.seen) // what a real initializer does: reset, keep buckets
	if len(e2.seen) != 0 {
		t.Fatal("clear failed")
	}
}

func TestClearRecyclesAll(t *testing.T) {
	s := NewMap[int, acc]()
	entries := map[*acc]bool{}
	for i := 0; i < 100; i++ {
		e, _ := s.GetOrCreate(i)
		entries[e] = true
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear left keys")
	}
	// Every subsequent create must be served from the pool.
	for i := 0; i < 100; i++ {
		e, created := s.GetOrCreate(1000 + i)
		if !created || !entries[e] {
			t.Fatalf("entry %d not recycled", i)
		}
	}
}

func TestRangeVisitsAll(t *testing.T) {
	s := NewMap[int, acc]()
	for i := 0; i < 10; i++ {
		e, _ := s.GetOrCreate(i)
		e.count = int64(i)
	}
	sum := int64(0)
	n := 0
	s.Range(func(k int, e *acc) bool {
		sum += e.count
		n++
		return true
	})
	if n != 10 || sum != 45 {
		t.Fatalf("Range visited %d entries, sum %d", n, sum)
	}
	n = 0
	s.Range(func(k int, e *acc) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-stop Range visited %d", n)
	}
}

// TestSteadyStateAccessAllocFree: the per-tuple access pattern of a
// keyed aggregation — existing-key lookup and update — allocates
// nothing, and a churning key (delete + re-create) is served entirely
// from the pool.
func TestSteadyStateAccessAllocFree(t *testing.T) {
	s := NewMap[string, acc]()
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for _, k := range keys {
		e, _ := s.GetOrCreate(k)
		e.count = 0
	}
	i := 0
	avg := testing.AllocsPerRun(5000, func() {
		e := s.Get(keys[i%len(keys)])
		e.count++
		i++
	})
	if avg > 0 {
		t.Errorf("existing-key access allocates %.3f/op, want 0", avg)
	}
	// Churn: windows create and delete keys constantly; after warmup the
	// pool must absorb it. (map bucket reuse for a deleted+reinserted
	// key is the runtime's job; the entry is ours and must not allocate.)
	avg = testing.AllocsPerRun(5000, func() {
		e, created := s.GetOrCreate("churn")
		if created {
			e.count = 0
		}
		e.count++
		s.Delete("churn")
	})
	if avg > 0.01 {
		t.Errorf("churning key allocates %.3f/op, want ~0", avg)
	}
}

func TestRangeSortedDeterministicOrder(t *testing.T) {
	// Two maps with the same keys inserted in different orders must
	// iterate identically — that is what makes snapshot encodings of
	// keyed state byte-stable.
	build := func(keys []string) *Map[string, int] {
		m := NewMap[string, int]()
		for _, k := range keys {
			e, _ := m.GetOrCreate(k)
			*e = len(k)
		}
		return m
	}
	a := build([]string{"pear", "fig", "apple", "kiwi"})
	b := build([]string{"kiwi", "apple", "pear", "fig"})
	compare := func(x, y string) int { return strings.Compare(x, y) }
	collect := func(m *Map[string, int]) []string {
		var out []string
		m.RangeSorted(compare, func(k string, e *int) bool {
			out = append(out, fmt.Sprintf("%s=%d", k, *e))
			return true
		})
		return out
	}
	ka, kb := collect(a), collect(b)
	want := []string{"apple=5", "fig=3", "kiwi=4", "pear=4"}
	if !slices.Equal(ka, want) || !slices.Equal(kb, want) {
		t.Fatalf("RangeSorted order: %v / %v, want %v", ka, kb, want)
	}
	// Early exit stops the sweep.
	n := 0
	a.RangeSorted(compare, func(string, *int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early exit visited %d keys", n)
	}
	// The sorted order is kept: steady-state calls allocate only what
	// the caller's closure does.
	avg := testing.AllocsPerRun(100, func() {
		a.RangeSorted(compare, func(string, *int) bool { return true })
	})
	if avg > 0 {
		t.Errorf("RangeSorted allocates %.3f/op after warmup, want 0", avg)
	}
}

// TestRangeSortedMatchesFreshSort is a randomized differential test of
// the RangeSorted order cache: creates, deletes, clears, early-exit
// passes and passes under a different compare are interleaved, and
// every pass must visit exactly what a from-scratch sort of the live
// keys gives, each key with its own entry.
func TestRangeSortedMatchesFreshSort(t *testing.T) {
	compares := []func(a, b int) int{
		cmp.Compare[int],
		func(a, b int) int { return cmp.Compare(b, a) },
		func(a, b int) int {
			if d := cmp.Compare(a%7, b%7); d != 0 {
				return d
			}
			return cmp.Compare(a, b)
		},
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		s := NewMap[int, int]()
		ref := map[int]bool{}
		compare := compares[0]
		keySpace := 50 + r.IntN(500)
		for step := 0; step < 3000; step++ {
			switch op := r.IntN(100); {
			case op < 55:
				k := r.IntN(keySpace)
				e, created := s.GetOrCreate(k)
				if created == ref[k] {
					t.Fatalf("seed %d step %d: GetOrCreate(%d) created=%v, live=%v", seed, step, k, created, ref[k])
				}
				*e = k
				ref[k] = true
			case op < 70:
				k := r.IntN(keySpace)
				s.Delete(k)
				delete(ref, k)
			case op < 71:
				s.Clear()
				clear(ref)
			case op < 75:
				compare = compares[r.IntN(len(compares))]
			default:
				want := make([]int, 0, len(ref))
				for k := range ref {
					want = append(want, k)
				}
				slices.SortFunc(want, compare)
				limit := len(want)
				if r.IntN(4) == 0 && limit > 0 {
					limit = r.IntN(limit) // early exit
				}
				got := make([]int, 0, limit)
				s.RangeSorted(compare, func(k int, e *int) bool {
					if *e != k || s.Get(k) != e {
						t.Fatalf("seed %d step %d: key %d visited with entry %p (%d), Get gives %p", seed, step, k, e, *e, s.Get(k))
					}
					got = append(got, k)
					return len(got) < limit
				})
				if limit == 0 {
					// A pass always visits its first key; f stops it.
					got = got[:0]
				}
				if !slices.Equal(got, want[:limit]) {
					t.Fatalf("seed %d step %d: RangeSorted visited %v, want %v", seed, step, got, want[:limit])
				}
			}
		}
	}
}

// TestRangeSortedSteadyStateAllocFree: once a pass has sorted the keys,
// a pass over an unchanged key set is a walk over the kept order and
// allocates nothing, however large the map.
func TestRangeSortedSteadyStateAllocFree(t *testing.T) {
	s := NewMap[int64, int64]()
	for i := int64(0); i < 10000; i++ {
		e, _ := s.GetOrCreate((i * 7919) % 10007)
		*e = i
	}
	var sum int64
	pass := func() {
		s.RangeSorted(cmp.Compare[int64], func(k int64, e *int64) bool {
			sum += *e
			return true
		})
	}
	pass()
	if avg := testing.AllocsPerRun(50, pass); avg != 0 {
		t.Errorf("steady-state RangeSorted allocates %.2f/op, want 0", avg)
	}
	// Updating values in place keeps the cache: it tracks keys, not
	// values.
	for k := int64(0); k < 100; k++ {
		*s.Get((k * 7919) % 10007) = -1
	}
	if avg := testing.AllocsPerRun(50, pass); avg != 0 {
		t.Errorf("RangeSorted after value updates allocates %.2f/op, want 0", avg)
	}
}
