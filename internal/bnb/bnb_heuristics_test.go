package bnb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
)

// TestDedupSkipsIdenticalSubProblems: the same partial placement reached
// through different decision orders must be expanded once.
func TestDedupSkipsIdenticalSubProblems(t *testing.T) {
	m := numa.Synthetic("dedup", 4, 2, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &model.Config{Machine: m, Stats: stats(100, 800, 60), Ingress: model.Saturated}
	eg, _ := plan.Build(chain(t), map[string]int{"worker": 4}, 1)

	with, err := Optimize(eg, cfg, Config{NodeLimit: 100000})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Optimize(eg, cfg, Config{NodeLimit: 100000, NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Deduped == 0 {
		t.Error("no duplicate sub-problems detected; the WC-style graph must produce some")
	}
	if without.Deduped != 0 {
		t.Error("NoDedup still deduplicated")
	}
	// Dedup must not change the solution quality.
	if with.Eval.Throughput < without.Eval.Throughput*(1-1e-9) {
		t.Errorf("dedup degraded solution: %v vs %v", with.Eval.Throughput, without.Eval.Throughput)
	}
	// And it should reduce (or at worst match) the work done.
	if with.Explored > without.Explored {
		t.Errorf("dedup explored more nodes (%d) than baseline (%d)", with.Explored, without.Explored)
	}
}

// TestWarmStartDoesNotDegrade: seeding the incumbent with the greedy
// plan must never produce a worse final solution.
func TestWarmStartDoesNotDegrade(t *testing.T) {
	m := numa.Synthetic("warm", 4, 2, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &model.Config{Machine: m, Stats: stats(100, 800, 60), Ingress: model.Saturated}
	eg, _ := plan.Build(chain(t), map[string]int{"worker": 3}, 1)

	cold, err := Optimize(eg, cfg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Optimize(eg, cfg, Config{WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Eval.Throughput < cold.Eval.Throughput*(1-1e-9) {
		t.Errorf("warm start degraded solution: %v vs %v", warm.Eval.Throughput, cold.Eval.Throughput)
	}
}

// TestWarmStartPrunesEarlier: with a node budget too small for the cold
// search to reach any solution on a deep graph, the warm start still
// returns a valid plan.
func TestWarmStartRescuesTinyBudget(t *testing.T) {
	m := numa.Synthetic("tiny-budget", 4, 4, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &model.Config{Machine: m, Stats: stats(100, 500, 60), Ingress: model.Saturated}
	eg, _ := plan.Build(chain(t), map[string]int{"worker": 8}, 1)

	warm, err := Optimize(eg, cfg, Config{NodeLimit: 1, WarmStart: true})
	if err != nil {
		t.Fatalf("warm start with 1-node budget: %v", err)
	}
	if warm.Placement == nil || !warm.Eval.Feasible() {
		t.Error("warm start did not provide a usable incumbent")
	}
}

// TestGreedyPlacementComplete: the warm-start helper always returns a
// complete placement.
func TestGreedyPlacementComplete(t *testing.T) {
	m := numa.Synthetic("greedy", 2, 1, 50, 200, 400, 50*numa.GB, 10*numa.GB, 5*numa.GB)
	cfg := &model.Config{Machine: m, Stats: stats(100, 100, 100), Ingress: model.Saturated}
	eg, _ := plan.Build(chain(t), map[string]int{"worker": 4}, 1)
	p := greedyPlacement(eg, cfg)
	if p == nil || !p.Complete(eg) {
		t.Fatal("greedy placement incomplete")
	}
}

// TestPlacementSignature: distinct placements get distinct visited-set
// keys; equal placements collide.
func TestPlacementSignature(t *testing.T) {
	eg, _ := plan.Build(chain(t), nil, 1)
	a := plan.NewPlacement()
	a.Place(eg.Vertices[0].ID, 0)
	b := plan.NewPlacement()
	b.Place(eg.Vertices[0].ID, 0)
	if string(a.AppendKey(nil)) != string(b.AppendKey(nil)) {
		t.Error("identical placements have different signatures")
	}
	b.Place(eg.Vertices[1].ID, 1)
	if string(a.AppendKey(nil)) == string(b.AppendKey(nil)) {
		t.Error("different placements share a signature")
	}
	c := plan.NewPlacement()
	c.Place(eg.Vertices[0].ID, 1)
	if string(a.AppendKey(nil)) == string(c.AppendKey(nil)) {
		t.Error("different sockets share a signature")
	}
}

// TestLoadKeyMatchesSixDigits: two sockets share a load key exactly when
// their loads print the same at %.6g, the precision at which socket
// equivalence is defined.
func TestLoadKeyMatchesSixDigits(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, 1.0000004, 1.0000006, 999999.4, 999999.6, 1e6,
		-2.5e-7, 3.1e15, 3.1000004e15, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		x := rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(30)-10))
		values = append(values, x, x*(1+rng.NormFloat64()*1e-6))
	}
	for i := 0; i+1 < len(values); i++ {
		for _, pair := range [][2]float64{{values[i], values[i+1]}, {values[i], values[i]}} {
			x, y := pair[0], pair[1]
			cur := &model.Result{CPUUsed: []float64{x, y}, BWUsed: []float64{y, x}}
			want := fmt.Sprintf("%.6g|%.6g", x, y) == fmt.Sprintf("%.6g|%.6g", y, x)
			if got := loadKey(cur, 0) == loadKey(cur, 1); got != want {
				t.Errorf("loads %v and %v: keys equal = %v, %%.6g equal = %v", x, y, got, want)
			}
		}
	}
}
