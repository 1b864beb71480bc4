// Package rlas implements Relative-Location Aware Scheduling — the
// paper's core contribution (Sections 3-4). RLAS jointly optimizes the
// replication level and the placement of every operator: it repeatedly
// (1) solves placement for the current replication configuration with
// the branch-and-bound search, (2) identifies bottleneck (over-supplied)
// operators from the model evaluation of the solution, and (3) grows the
// bottleneck's replication level by the over-supply ratio ceil(ri/ro),
// scaling from the sinks toward the spout along the reverse topological
// order (Algorithm 1). The loop stops when no valid placement exists for
// the grown graph, when the replica budget (total CPU cores by default)
// is exhausted, or when no bottleneck remains.
package rlas

import (
	"fmt"
	"math"
	"time"

	"briskstream/internal/bnb"
	"briskstream/internal/graph"
	"briskstream/internal/model"
	"briskstream/internal/plan"
	"briskstream/internal/profile"
)

// Config tunes an RLAS optimization run.
type Config struct {
	// Model carries machine, statistics, ingress rate and Tf policy.
	Model *model.Config
	// Compress is the execution-graph compression ratio r (Section 4,
	// heuristic 3). Default 5 — the paper's chosen trade-off (Table 7).
	Compress int
	// BnB tunes the placement search.
	BnB bnb.Config
	// MaxTotalReplicas caps the summed replication level. Default: the
	// machine's total core count.
	MaxTotalReplicas int
	// MaxIterations caps scaling rounds (default 128).
	MaxIterations int
	// Initial seeds the replication configuration (default: all 1). The
	// paper notes starting from a reasonably large DAG reduces scaling
	// iterations (Appendix D).
	Initial map[string]int
	// FixedSpouts pins the replication of spout operators (some
	// workloads model a fixed set of ingress points).
	FixedSpouts bool
}

// IterationTrace records one scaling round for reports.
type IterationTrace struct {
	Replication map[string]int
	Throughput  float64
	Bottleneck  string // operator grown after this round ("" if none)
	Explored    int
}

// Result is the optimized execution plan.
type Result struct {
	// Replication is the chosen replication level per operator.
	Replication map[string]int
	// Graph is the execution graph of the final plan (compressed at the
	// configured ratio).
	Graph *plan.ExecGraph
	// Placement is the chosen placement of Graph's vertices.
	Placement *plan.Placement
	// Eval is the model evaluation of the final plan.
	Eval *model.Result
	// Iterations counts placement-optimization rounds.
	Iterations int
	// Elapsed is the total optimization runtime (Table 7).
	Elapsed time.Duration
	// Trace records each round.
	Trace []IterationTrace
}

// Optimize runs RLAS on the application.
func Optimize(app *graph.Graph, cfg Config) (*Result, error) {
	start := time.Now()
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("rlas: nil model config")
	}
	ratio := cfg.Compress
	if ratio <= 0 {
		ratio = 5
	}
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 128
	}
	budget := cfg.MaxTotalReplicas
	if budget <= 0 {
		budget = cfg.Model.Machine.TotalCores()
	}

	repl := map[string]int{}
	for _, n := range app.Nodes() {
		repl[n.Name] = 1
		if cfg.Initial != nil && cfg.Initial[n.Name] > 0 {
			repl[n.Name] = cfg.Initial[n.Name]
		}
	}

	revOrder, err := app.ReverseTopoSort()
	if err != nil {
		return nil, err
	}

	res := &Result{}
	best := -1.0

	// lastGrowth remembers the most recent replication increase so an
	// infeasible result can be backtracked: the step is halved until it
	// reaches one replica, after which the operator is frozen at its
	// last feasible level. This refines Algorithm 1's bare termination
	// (its line 9 simply stops on the first failed placement), in the
	// spirit of the Appendix D discussion of "failed-to-allocate".
	type growth struct {
		op   string
		prev int
	}
	var lastGrowth *growth
	frozen := map[string]bool{}

	// shrinks counts how many times an infeasible *initial* configuration
	// has been halved: a warm-started replication (or a pessimistic Tf
	// policy) can overshoot the machine, in which case the right move is
	// to scale the whole seed down, not to give up.
	shrinks := 0

	for iter := 0; iter < maxIter; iter++ {
		eg, err := plan.Build(app, repl, ratio)
		if err != nil {
			return nil, err
		}
		res.Iterations++
		pr, err := bnb.Optimize(eg, cfg.Model, cfg.BnB)
		if err == bnb.ErrNoFeasiblePlacement {
			if lastGrowth == nil {
				allOne := true
				for _, k := range repl {
					if k > 1 {
						allOne = false
						break
					}
				}
				if allOne || shrinks >= 8 {
					// Even the minimal configuration has no valid
					// placement: the machine cannot host the saturated
					// application at all.
					break
				}
				for op, k := range repl {
					if k > 1 {
						repl[op] = (k + 1) / 2
					}
				}
				shrinks++
				continue
			}
			delta := repl[lastGrowth.op] - lastGrowth.prev
			if delta > 1 {
				repl[lastGrowth.op] = lastGrowth.prev + delta/2
			} else {
				repl[lastGrowth.op] = lastGrowth.prev
				frozen[lastGrowth.op] = true
				lastGrowth = nil
			}
			continue
		}
		if err != nil {
			return nil, err
		}

		trace := IterationTrace{Replication: cloneRepl(repl), Throughput: pr.Eval.Throughput, Explored: pr.Explored}
		if pr.Eval.Throughput > best {
			best = pr.Eval.Throughput
			res.Replication = cloneRepl(repl)
			res.Graph = eg
			res.Placement = pr.Placement
			res.Eval = pr.Eval
		}

		// Find the first bottleneck operator in reverse topological
		// order (scale from sink toward spout) and grow it by the
		// over-supply ratio.
		grown := false
		for _, op := range revOrder {
			if frozen[op] {
				continue
			}
			if cfg.FixedSpouts && app.Node(op).IsSpout {
				continue
			}
			ratioOver := overSupplyRatio(eg, pr.Eval, op)
			if ratioOver <= 1 {
				continue
			}
			cur := repl[op]
			next := int(math.Ceil(float64(cur) * ratioOver))
			// Cap growth at doubling per round: with a saturated ingress
			// the spout's over-supply ratio is unbounded (its offered
			// load is the external rate I), and even internal operators
			// estimated under partial information should approach their
			// final level geometrically rather than overshoot.
			if next > 2*cur {
				next = 2 * cur
			}
			if next <= cur {
				next = cur + 1
			}
			if totalRepl(repl)-cur+next > budget {
				// Clamp to the remaining budget if that still grows.
				room := budget - (totalRepl(repl) - cur)
				if room <= cur {
					continue // cannot grow this operator further
				}
				next = room
			}
			lastGrowth = &growth{op: op, prev: cur}
			repl[op] = next
			trace.Bottleneck = op
			grown = true
			break
		}
		res.Trace = append(res.Trace, trace)
		if !grown {
			break // no bottleneck can be grown: optimum reached
		}
	}

	res.Elapsed = time.Since(start)
	if res.Placement == nil {
		return res, bnb.ErrNoFeasiblePlacement
	}
	return res, nil
}

// overSupplyRatio returns max over the operator's vertices of ri/capacity
// (1 when the operator keeps up with its input everywhere).
func overSupplyRatio(eg *plan.ExecGraph, ev *model.Result, op string) float64 {
	worst := 1.0
	for _, v := range eg.OfOp(op) {
		r := ev.Rates[v.ID]
		if r.Capacity > 0 && r.In/r.Capacity > worst {
			worst = r.In / r.Capacity
		}
	}
	return worst
}

func totalRepl(repl map[string]int) int {
	t := 0
	for _, v := range repl {
		t += v
	}
	return t
}

func cloneRepl(r map[string]int) map[string]int {
	c := make(map[string]int, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// CostPerSpoutTuple returns the total CPU nanoseconds the whole pipeline
// spends per spout output tuple: sum over operators of (relative input
// rate x Te), where the relative rate is the sum over paths from the
// spout of the product of selectivities.
func CostPerSpoutTuple(app *graph.Graph, stats profile.Set) (float64, error) {
	order, err := app.TopoSort()
	if err != nil {
		return 0, err
	}
	rel := map[string]float64{}
	for _, op := range order {
		n := app.Node(op)
		if n.IsSpout {
			rel[op] = 1
			continue
		}
		for _, e := range app.In(op) {
			st, ok := stats[e.From]
			if !ok {
				return 0, fmt.Errorf("rlas: no stats for %q", e.From)
			}
			rel[op] += rel[e.From] * st.Selectivity[e.Stream]
		}
	}
	var totalCost float64
	for op, r := range rel {
		st, ok := stats[op]
		if !ok {
			return 0, fmt.Errorf("rlas: no stats for %q", op)
		}
		totalCost += r * st.Te
	}
	if totalCost <= 0 {
		return 0, fmt.Errorf("rlas: degenerate cost model")
	}
	return totalCost, nil
}

// EstimateMaxIngress approximates the highest external ingress rate the
// machine can sustain (Imax): the core budget divided by the pipeline's
// CPU cost per spout tuple, scaled by fill. The paper tunes I to its
// maximum attainable value to keep the system busy (Section 6.1); on
// machines too small to host a saturated spout this is the back-pressure
// stabilized operating point.
func EstimateMaxIngress(app *graph.Graph, stats profile.Set, totalCores int, fill float64) (float64, error) {
	cost, err := CostPerSpoutTuple(app, stats)
	if err != nil {
		return 0, err
	}
	return float64(totalCores) * 1e9 * fill / cost, nil
}

// SeedReplication derives an informed initial replication configuration
// from the statistics alone: each operator's relative input rate is the
// sum over paths from the spout of the product of selectivities, so its
// share of the machine's CPU is proportional to rate x Te. The fill
// factor (0 < fill <= 1, e.g. 0.7) leaves headroom for the iterative
// scaling to refine. Appendix D notes that starting from a reasonably
// large DAG configuration reduces the number of scaling iterations; this
// is that warm start.
func SeedReplication(app *graph.Graph, stats profile.Set, totalCores int, fill float64) (map[string]int, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if fill <= 0 || fill > 1 {
		return nil, fmt.Errorf("rlas: fill %v out of (0,1]", fill)
	}
	order, err := app.TopoSort()
	if err != nil {
		return nil, err
	}
	// Relative input rate per unit of spout output.
	rel := map[string]float64{}
	for _, op := range order {
		n := app.Node(op)
		if n.IsSpout {
			rel[op] = 1
			continue
		}
		for _, e := range app.In(op) {
			st, ok := stats[e.From]
			if !ok {
				return nil, fmt.Errorf("rlas: no stats for %q", e.From)
			}
			rel[op] += rel[e.From] * st.Selectivity[e.Stream]
		}
	}
	// CPU share per op and the spout rate the budget supports.
	var totalCost float64 // ns of CPU per spout tuple
	for op, r := range rel {
		totalCost += r * stats[op].Te
	}
	if totalCost <= 0 {
		return nil, fmt.Errorf("rlas: degenerate cost model")
	}
	spoutRate := float64(totalCores) * 1e9 * fill / totalCost
	repl := map[string]int{}
	for op, r := range rel {
		k := int(math.Ceil(spoutRate * r * stats[op].Te / 1e9))
		if k < 1 {
			k = 1
		}
		repl[op] = k
	}
	return repl, nil
}

// ReEvaluate re-runs the performance model on an optimized plan under a
// different Tf policy. Figure 12's RLAS_fix ablations optimize the plan
// under a fixed-capability assumption and then measure it under the real
// NUMA-charged model; this helper provides the second step.
func ReEvaluate(r *Result, cfg *model.Config, policy model.TfPolicy) (*model.Result, error) {
	c := *cfg
	c.Policy = policy
	return model.Evaluate(r.Graph, r.Placement, &c, model.Options{})
}

// Apply flattens the optimized plan into engine configuration: the
// replication map and the "op#replica" → socket placement the engine's
// Config consumes. This is the planning-to-execution seam — callers no
// longer hand-translate vertex labels.
func (r *Result) Apply() (*plan.EngineConfig, error) {
	return plan.Apply(r.Graph, r.Placement)
}
