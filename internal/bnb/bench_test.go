package bnb_test

import (
	"testing"

	"briskstream/internal/apps"
	"briskstream/internal/bnb"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/rlas"
)

// BenchmarkBnBOptimize times one placement search for LR on Server A
// with node limit 1500, on the execution graph of RLAS's final plan.
func BenchmarkBnBOptimize(b *testing.B) {
	lr := apps.LinearRoad()
	m := numa.ServerA()
	seed, err := rlas.SeedReplication(lr.Graph, lr.Stats, m.TotalCores(), 0.7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := &model.Config{Machine: m, Stats: lr.Stats, Ingress: model.Saturated}
	bc := bnb.Config{NodeLimit: 1500}
	r, err := rlas.Optimize(lr.Graph, rlas.Config{Model: cfg, BnB: bc, Initial: seed})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := bnb.Optimize(r.Graph, cfg, bc); err != nil {
			b.Fatal(err)
		}
	}
}
