package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/bnb"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/rlas"
)

// planNodeLimit is the branch-and-bound node limit per placement round,
// Topology.Optimize's default.
const planNodeLimit = 1500

// appPlan is one app's RLAS outcome.
type appPlan struct {
	name      string
	wall      time.Duration
	res       *rlas.Result
	cfg       rlas.Config
	explored  int // search-tree nodes over all scaling iterations
	predicted float64
	err       error
}

// planApp optimizes one app for Server A the way Topology.Optimize
// configures RLAS: saturated ingress, node limit 1500, replication
// seeded from the analytic estimate at 70% fill.
func planApp(a *apps.App, m *numa.Machine, spans *spanLog) appPlan {
	p := appPlan{name: a.Name}
	seed, err := rlas.SeedReplication(a.Graph, a.Stats, m.TotalCores(), 0.7)
	if err != nil {
		p.err = err
		return p
	}
	p.cfg = rlas.Config{
		Model:   &model.Config{Machine: m, Stats: a.Stats, Ingress: model.Saturated},
		BnB:     bnb.Config{NodeLimit: planNodeLimit},
		Initial: seed,
	}
	span := spans.begin("rlas.Optimize " + a.Name)
	t0 := time.Now()
	p.res, p.err = rlas.Optimize(a.Graph, p.cfg)
	p.wall = time.Since(t0)
	spans.end(span)
	if p.err == nil && !p.res.Eval.Feasible() {
		p.err = fmt.Errorf("rlas: %s plan violates %v", a.Name, p.res.Eval.Violations)
	}
	if p.err != nil {
		return p
	}
	for _, it := range p.res.Trace {
		p.explored += it.Explored
	}
	p.predicted = p.res.Eval.Throughput
	return p
}

// planRound runs RLAS for the paper's four apps on Server A.
type planRound struct {
	plans  []appPlan
	wall   time.Duration // summed RLAS wall time
	cpu    time.Duration
	mem    runtime.MemStats // deltas over the round
	failed int
}

func runPlanRound(spans *spanLog) planRound {
	var r planRound
	m := numa.ServerA()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	for _, a := range apps.All() {
		p := planApp(a, m, spans)
		r.wall += p.wall
		if p.err != nil {
			r.failed++
		}
		r.plans = append(r.plans, p)
	}
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	r.mem = memDelta(ms0, ms1)
	return r
}

// minPlanRounds is the fewest planning rounds a run makes. A round
// takes ~20 s on a 2-vCPU Xeon VM, where one contended stretch of the shared host slowed
// single rounds by up to 90%; the median of two halves that.
const minPlanRounds = 2

// measurePlan repeats planning rounds until seconds are spent (at least
// minPlanRounds) and reports the median over rounds.
func measurePlan(seconds float64, spans *spanLog) (metrics map[string]float64, rounds []planRound) {
	start := time.Now()
	for len(rounds) < minPlanRounds || time.Since(start).Seconds() < seconds {
		rounds = append(rounds, runPlanRound(spans))
	}
	var setup, tps, p50, p99, cpu, pred []float64
	for _, r := range rounds {
		var explored int
		per := make([]float64, 0, len(r.plans))
		logSum := 0.0
		for _, p := range r.plans {
			explored += p.explored
			per = append(per, float64(p.wall)/1e6)
			if p.predicted > 0 {
				logSum += math.Log(p.predicted)
			}
		}
		setup = append(setup, r.wall.Seconds())
		tps = append(tps, float64(explored)/r.wall.Seconds())
		p50 = append(p50, median(per))
		p99 = append(p99, slices.Max(per))
		cpu = append(cpu, float64(r.cpu)/1e3/float64(max(explored, 1)))
		pred = append(pred, math.Exp(logSum/float64(len(r.plans))))
	}
	return map[string]float64{
		"setup_s":            median(setup),
		"throughput_tps":     median(tps),
		"latency_p50_ms":     median(p50),
		"latency_p99_ms":     median(p99),
		"cpu_us_per_record":  median(cpu),
		"plan_predicted_tps": median(pred),
		"mem_peak_mb":        peakRSSMB(),
	}, rounds
}

// planLayers re-runs the search pieces on each app's final plan for the
// traced run: one bnb.Optimize on the final execution graph (its
// explored/pruned/deduped counts) and repeated model.Evaluate calls on
// the final placement (their median time).
func planLayers(r planRound, spans *spanLog) (map[string]float64, error) {
	out := map[string]float64{}
	var evalUs []float64
	for _, p := range r.plans {
		if p.err != nil {
			continue
		}
		out["rlas."+p.name+".plan_s"] = p.wall.Seconds()
		out["rlas."+p.name+".iterations"] = float64(p.res.Iterations)
		out["rlas."+p.name+".predicted_tps"] = p.predicted

		span := spans.begin("bnb.Optimize " + p.name)
		b, err := bnb.Optimize(p.res.Graph, p.cfg.Model, p.cfg.BnB)
		spans.end(span)
		if err != nil {
			return nil, fmt.Errorf("bnb.Optimize %s: %w", p.name, err)
		}
		out["bnb."+p.name+".explored"] = float64(b.Explored)
		out["bnb."+p.name+".pruned"] = float64(b.Pruned)
		out["bnb."+p.name+".deduped"] = float64(b.Deduped)

		span = spans.begin("model.Evaluate " + p.name)
		for range 50 {
			t0 := time.Now()
			if _, err := model.Evaluate(p.res.Graph, p.res.Placement, p.cfg.Model, model.Options{}); err != nil {
				return nil, fmt.Errorf("model.Evaluate %s: %w", p.name, err)
			}
			evalUs = append(evalUs, float64(time.Since(t0))/1e3)
		}
		spans.end(span)
	}
	out["model.evaluate_us"] = median(evalUs)
	out["plan.alloc_mb"] = float64(r.mem.TotalAlloc) / (1 << 20)
	out["plan.gc_count"] = float64(r.mem.NumGC)
	out["runtime.gc_count"] = float64(r.mem.NumGC)
	out["runtime.gc_pause_ms"] = float64(r.mem.PauseTotalNs) / 1e6
	return out, nil
}
