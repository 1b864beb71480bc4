package model

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"briskstream/internal/numa"
	"briskstream/internal/plan"
)

// TestEvaluateAllocsConstant guards the branch-and-bound inner loop: a
// bound evaluation of a partial placement makes a small, fixed number
// of allocations (result, rates, the compiled per-vertex and per-edge
// floats, the per-socket sums, the channel rows, InBy, bottlenecks)
// however many vertices the graph has, and a compiled Evaluator's Bound
// and EvaluateScratch make none.
func TestEvaluateAllocsConstant(t *testing.T) {
	m := numa.Synthetic("a", 4, 8, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &Config{Machine: m, Stats: diamondStats(), Ingress: Saturated}
	allocs := func(fast int) (oneShot, bound, scratch float64) {
		eg, err := plan.Build(diamondGraph(t), map[string]int{"fast": fast, "slow": fast}, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := plan.Unplaced(eg)
		for i, v := range eg.Vertices[:len(eg.Vertices)/2] {
			p.Place(v.ID, numa.SocketID(i%m.Sockets))
		}
		ev, err := Compile(eg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oneShot = testing.AllocsPerRun(100, func() {
			if _, err := Evaluate(eg, p, cfg, Options{Bound: true}); err != nil {
				t.Fatal(err)
			}
		})
		bound = testing.AllocsPerRun(100, func() {
			if _, err := ev.Bound(p); err != nil {
				t.Fatal(err)
			}
		})
		scratch = testing.AllocsPerRun(100, func() {
			if _, err := ev.EvaluateScratch(p, Options{Bound: true}); err != nil {
				t.Fatal(err)
			}
		})
		return oneShot, bound, scratch
	}
	small, _, _ := allocs(1)
	large, bound, scratch := allocs(40)
	if small > 8 || large != small {
		t.Errorf("bound Evaluate allocations: %v at 4 vertices, %v at 82; want <= 8 and equal", small, large)
	}
	if bound != 0 || scratch != 0 {
		t.Errorf("compiled Bound / EvaluateScratch allocate %v / %v times, want 0", bound, scratch)
	}
}

// TestEvaluatorMatchesEvaluate: a compiled Evaluator, reused across many
// placements, returns bit for bit what a one-shot Evaluate returns —
// Bound its throughput, EvaluateScratch the whole result.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	m := numa.Synthetic("e", 4, 8, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &Config{Machine: m, Stats: diamondStats(), Ingress: Saturated}
	eg, err := plan.Build(diamondGraph(t), map[string]int{"fast": 3, "slow": 5, "sink": 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Compile(eg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := plan.Unplaced(eg)
		for _, v := range eg.Vertices {
			if rng.Intn(3) > 0 {
				p.Place(v.ID, numa.SocketID(rng.Intn(m.Sockets)))
			}
		}
		opts := Options{Bound: !p.Complete(eg)}
		want, err := Evaluate(eg, p, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.EvaluateScratch(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("trial %d: EvaluateScratch differs from Evaluate:\n got %+v\nwant %+v", trial, got, want)
		}
		bound, err := ev.Bound(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(bound) != math.Float64bits(want.Throughput) {
			t.Fatalf("trial %d: Bound = %v, Evaluate throughput = %v", trial, bound, want.Throughput)
		}
	}
}

// normalize copies r with empty Bottlenecks and Violations as nil: a
// reused result keeps its emptied slices.
func normalize(r *Result) Result {
	c := *r
	if len(c.Bottlenecks) == 0 {
		c.Bottlenecks = nil
	}
	if len(c.Violations) == 0 {
		c.Violations = nil
	}
	return c
}
