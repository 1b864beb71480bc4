package briskstream

import (
	"fmt"
	"strings"
	"time"

	"briskstream/internal/bnb"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
	"briskstream/internal/profile"
	"briskstream/internal/rlas"
	"briskstream/internal/sim"
)

// Machine describes the NUMA machine an execution plan targets.
type Machine = numa.Machine

// ServerA returns the paper's HUAWEI KunLun descriptor (8 x 18 cores,
// glue-less interconnect).
func ServerA() *Machine { return numa.ServerA() }

// ServerB returns the paper's HP ProLiant DL980 G7 descriptor (8 x 8
// cores, XNC node controller).
func ServerB() *Machine { return numa.ServerB() }

// HostMachine builds a calibrated descriptor of the machine running
// this process from the NUMA topology probed out of sysfs (a single
// socket holding every CPU where the probe is unavailable). It is the
// default optimization target of the autoscaler: plans meant to
// execute here should be planned for here, not for the paper's
// Table 2 servers.
func HostMachine() *Machine { return numa.DetectHost().Machine() }

// SyntheticMachine builds a two-tray machine for experiments.
func SyntheticMachine(name string, sockets, coresPerSocket int) *Machine {
	return numa.Synthetic(name, sockets, coresPerSocket,
		50, 300, 550, 50*numa.GB, 12*numa.GB, 6*numa.GB)
}

// OperatorStats carries one operator's profiled statistics for the
// performance model: execution time per tuple (ns), memory traffic per
// tuple (bytes), input tuple size (bytes) and per-stream selectivity.
type OperatorStats struct {
	ExecNs      float64
	MemoryBytes float64
	TupleBytes  float64
	Selectivity map[string]float64
}

// OptimizeConfig tunes RLAS.
type OptimizeConfig struct {
	// Machine is the optimization target (required).
	Machine *Machine
	// Stats maps operator name to profiled statistics (required). The
	// selectivity declared on the topology is used when a stat entry
	// leaves Selectivity nil.
	Stats map[string]OperatorStats
	// IngressRate is the offered external rate (tuples/sec); 0 means
	// saturated (the paper's maximum-capacity configuration).
	IngressRate float64
	// CompressRatio is the execution-graph compression r (default 5).
	CompressRatio int
	// SearchNodeLimit caps the branch-and-bound search per placement
	// round (default 1500).
	SearchNodeLimit int
	// MaxIterations caps scaling rounds (default 128).
	MaxIterations int
	// FixedSpouts pins spout replication during bottleneck scaling —
	// required when the plan must be adoptable by a running engine
	// (replay offsets are per-replica, so live sources cannot be split).
	FixedSpouts bool
}

// Plan is an optimized execution plan.
type Plan struct {
	// Replication is the chosen replica count per operator.
	Replication map[string]int
	// PlacementText renders the socket assignment ("S0: op#0, ...").
	PlacementText string
	// PredictedThroughput is the model's estimate (tuples/sec).
	PredictedThroughput float64
	// Bottlenecks lists operators still over-supplied in the final plan.
	Bottlenecks []string
	// Iterations and Elapsed describe the optimization run.
	Iterations int
	Elapsed    time.Duration

	inner *rlas.Result
	stats profile.Set
}

// Optimize runs RLAS on the topology and returns the plan.
func (t *Topology) Optimize(cfg OptimizeConfig) (*Plan, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.Machine == nil {
		return nil, fmt.Errorf("briskstream: OptimizeConfig.Machine is required")
	}
	stats, err := t.toProfileSet(cfg.Stats)
	if err != nil {
		return nil, err
	}
	ingress := cfg.IngressRate
	if ingress <= 0 {
		ingress = model.Saturated
	}
	nodeLimit := cfg.SearchNodeLimit
	if nodeLimit <= 0 {
		nodeLimit = 1500
	}
	seed, err := rlas.SeedReplication(t.g, stats, cfg.Machine.TotalCores(), 0.7)
	if err != nil {
		return nil, err
	}
	rcfg := rlas.Config{
		Model:         &model.Config{Machine: cfg.Machine, Stats: stats, Ingress: ingress},
		Compress:      cfg.CompressRatio,
		BnB:           bnb.Config{NodeLimit: nodeLimit},
		MaxIterations: cfg.MaxIterations,
		Initial:       seed,
		FixedSpouts:   cfg.FixedSpouts,
	}
	r, err := rlas.Optimize(t.g, rcfg)
	if err == bnb.ErrNoFeasiblePlacement && ingress == model.Saturated {
		// Machine too small for a saturated run: back off toward the
		// analytic maximum sustainable ingress.
		for _, fill := range []float64{0.9, 0.7, 0.5, 0.3} {
			imax, ierr := rlas.EstimateMaxIngress(t.g, stats, cfg.Machine.TotalCores(), fill)
			if ierr != nil {
				return nil, ierr
			}
			rcfg.Model = &model.Config{Machine: cfg.Machine, Stats: stats, Ingress: imax}
			if r, err = rlas.Optimize(t.g, rcfg); err == nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Replication:         r.Replication,
		PlacementText:       r.Placement.String(r.Graph),
		PredictedThroughput: r.Eval.Throughput,
		Iterations:          r.Iterations,
		Elapsed:             r.Elapsed,
		inner:               r,
		stats:               stats,
	}
	for _, id := range r.Eval.Bottlenecks {
		p.Bottlenecks = append(p.Bottlenecks, r.Graph.Vertex(id).Label())
	}
	return p, nil
}

// toProfileSet merges user statistics with topology-declared
// selectivities into the model's input format.
func (t *Topology) toProfileSet(stats map[string]OperatorStats) (profile.Set, error) {
	if stats == nil {
		return nil, fmt.Errorf("briskstream: OptimizeConfig.Stats is required")
	}
	set := profile.Set{}
	for _, n := range t.g.Nodes() {
		st, ok := stats[n.Name]
		if !ok {
			return nil, fmt.Errorf("briskstream: no stats for operator %q", n.Name)
		}
		sel := st.Selectivity
		if sel == nil {
			sel = n.Selectivity
		}
		set[n.Name] = profile.Stats{Te: st.ExecNs, M: st.MemoryBytes, N: st.TupleBytes, Selectivity: sel}
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}

// SimulationResult reports a simulated execution.
type SimulationResult struct {
	// Throughput is the steady-state sink rate (tuples/sec).
	Throughput float64
	// AvgLatencyMs approximates mean end-to-end latency.
	AvgLatencyMs float64
	// Utilization maps "op#replica-group" to service utilization.
	Utilization map[string]float64
}

// Simulate predicts the plan's steady-state behaviour on its machine
// without running the engine.
func (t *Topology) Simulate(p *Plan, m *Machine) (*SimulationResult, error) {
	if p == nil || p.inner == nil {
		return nil, fmt.Errorf("briskstream: Simulate requires a plan from Optimize")
	}
	sr, err := sim.Run(p.inner.Graph, p.inner.Placement, &sim.Config{
		Machine: m, Stats: p.stats, Ingress: model.Saturated,
	})
	if err != nil {
		return nil, err
	}
	out := &SimulationResult{
		Throughput:   sr.Throughput,
		AvgLatencyMs: sr.AvgLatencyNs / 1e6,
		Utilization:  map[string]float64{},
	}
	for _, v := range p.inner.Graph.Vertices {
		out.Utilization[v.Label()] = sr.PerVertex[v.ID].Utilization
	}
	return out, nil
}

// Describe renders the plan for human consumption.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "predicted throughput: %.1f K events/s\n", p.PredictedThroughput/1000)
	fmt.Fprintf(&b, "optimized in %d iterations (%v)\n", p.Iterations, p.Elapsed.Round(time.Millisecond))
	b.WriteString("replication:\n")
	for op, k := range p.Replication {
		fmt.Fprintf(&b, "  %-20s x%d\n", op, k)
	}
	b.WriteString("placement:\n")
	b.WriteString(p.PlacementText)
	return b.String()
}

// ExecGraph exposes the optimized execution graph for advanced callers
// (experiment harnesses); most users only need Replication/Describe.
func (p *Plan) ExecGraph() *plan.ExecGraph { return p.inner.Graph }
