package model_test

import (
	"testing"

	"briskstream/internal/apps"
	"briskstream/internal/bnb"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
	"briskstream/internal/rlas"
)

// BenchmarkModelEvaluate times one model evaluation of LR's final
// Server A plan, as branch and bound calls it on every search node
// (bound) and on every complete placement (full).
func BenchmarkModelEvaluate(b *testing.B) {
	lr := apps.LinearRoad()
	m := numa.ServerA()
	seed, err := rlas.SeedReplication(lr.Graph, lr.Stats, m.TotalCores(), 0.7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := &model.Config{Machine: m, Stats: lr.Stats, Ingress: model.Saturated}
	r, err := rlas.Optimize(lr.Graph, rlas.Config{Model: cfg, BnB: bnb.Config{NodeLimit: 1500}, Initial: seed})
	if err != nil {
		b.Fatal(err)
	}
	// The bound case evaluates the plan with its second half unplaced.
	partial := plan.Unplaced(r.Graph)
	order := r.Graph.TopoOrder()
	for _, id := range order[:len(order)/2] {
		s, _ := r.Placement.SocketOf(id)
		partial.Place(id, s)
	}
	for _, c := range []struct {
		name string
		p    *plan.Placement
		opts model.Options
	}{
		{"bound", partial, model.Options{Bound: true}},
		{"full", r.Placement, model.Options{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := model.Evaluate(r.Graph, c.p, cfg, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
