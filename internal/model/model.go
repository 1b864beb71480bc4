// Package model implements BriskStream's NUMA-aware rate-based
// performance model (Section 3). Given an execution plan (replication +
// placement on a machine) and per-operator statistics, it predicts the
// output rate of every replica (Formula 1), charges the remote-memory
// fetch penalty by relative producer-consumer location (Formula 2),
// identifies bottleneck (over-supplied) operators, checks the three
// resource-constraint families (Eq. 3-5) and reports the application
// throughput R = sum of sink output rates.
//
// The departure from classic rate-based optimization [Viglas & Naughton]
// that defines the paper: an operator's processing capability is NOT a
// constant — it depends on where the plan puts the operator relative to
// its producers.
package model

import (
	"fmt"
	"math"

	"briskstream/internal/numa"
	"briskstream/internal/plan"
	"briskstream/internal/profile"
)

// TfPolicy selects how the data-fetch time Tf is derived. Normal is the
// RLAS model; Zero and WorstCase are the RLAS_fix(U) and RLAS_fix(L)
// ablations of Section 6.4, which fall back to the classic fixed-
// capability assumption.
type TfPolicy int

const (
	// TfByPlacement charges Formula 2 based on actual relative location.
	TfByPlacement TfPolicy = iota
	// TfZero ignores RMA entirely (upper-bound fixed model, RLAS_fix(U)).
	TfZero
	// TfWorstCase always charges the machine's maximum remote latency as
	// if every operator were anti-collocated from all its producers
	// (lower-bound fixed model, RLAS_fix(L)).
	TfWorstCase
)

// Config carries the model inputs that do not change across placements.
type Config struct {
	Machine *numa.Machine
	Stats   profile.Set
	// Ingress is I: the external input rate (tuples/sec) offered to each
	// spout operator. Use a very large value (e.g. math.MaxFloat64/4) to
	// model the saturated configuration the paper evaluates.
	Ingress float64
	// Policy selects the Tf derivation (default TfByPlacement).
	Policy TfPolicy
}

// Saturated is a convenient "sufficiently large" ingress rate.
const Saturated = 1e15

// Input is one producer's share of a vertex's input rate.
type Input struct {
	From plan.VertexID
	Rate float64 // tuples/sec
}

// VertexRate is the model's per-vertex output.
type VertexRate struct {
	// In is the total input rate ri (tuples/sec).
	In float64
	// InBy decomposes In by producer vertex, ri(s): one entry per
	// producer, in the order of the producer's first in-edge. Sums over
	// it therefore run in a fixed order and are reproducible bit for bit.
	InBy []Input
	// T is the effective per-tuple processing time Te + weighted Tf (ns).
	T float64
	// Tf is the input-weighted average fetch time component of T (ns).
	Tf float64
	// Capacity is the maximum processing rate: Count * 1e9 / T.
	Capacity float64
	// Processed is the expected processed rate min(In, Capacity); for
	// spouts In is the offered ingress.
	Processed float64
	// Sustained is the back-pressure steady-state processing rate:
	// Processed scaled down by downstream consumption (a producer
	// stalls on the first full consumer queue, so it cannot run faster
	// than its slowest consumer drains — the paper's footnote 2).
	// Resource accounting (Eq. 3-5) uses Sustained.
	Sustained float64
	// OverSupplied marks bottlenecks: In > Capacity (Case 1).
	OverSupplied bool
}

// InFrom returns the input rate arriving from producer id (0 if id does
// not feed this vertex).
func (v *VertexRate) InFrom(id plan.VertexID) float64 {
	for _, in := range v.InBy {
		if in.From == id {
			return in.Rate
		}
	}
	return 0
}

// Violation describes one broken resource constraint.
type Violation struct {
	Kind   string // "cpu", "membw", "channel"
	From   numa.SocketID
	To     numa.SocketID // equals From for cpu/membw
	Demand float64
	Limit  float64
}

func (v Violation) String() string {
	if v.Kind == "channel" {
		return fmt.Sprintf("channel S%d->S%d: demand %.3g > limit %.3g", v.From, v.To, v.Demand, v.Limit)
	}
	return fmt.Sprintf("%s S%d: demand %.3g > limit %.3g", v.Kind, v.From, v.Demand, v.Limit)
}

// Result is a full model evaluation of one plan.
type Result struct {
	// Throughput is R: the summed expected output (processed) rate of
	// all sink vertices, tuples/sec.
	Throughput float64
	// Rates holds the per-vertex details, indexed by VertexID.
	Rates []VertexRate
	// Bottlenecks lists over-supplied vertices in topological order.
	Bottlenecks []plan.VertexID
	// Violations lists broken constraints (empty for a valid plan).
	Violations []Violation
	// CPUUsed, BWUsed aggregate demand per socket; ChannelUsed[i][j]
	// aggregates cross-socket transfer demand.
	CPUUsed     []float64
	BWUsed      []float64
	ChannelUsed [][]float64
}

// Feasible reports whether the plan satisfies all resource constraints.
func (r *Result) Feasible() bool { return len(r.Violations) == 0 }

// Options tunes a single evaluation.
type Options struct {
	// Bound activates the branch-and-bound bounding function: vertices
	// not yet placed are treated as collocated with all of their
	// producers (Tf = 0) and excluded from resource accounting, which
	// yields a guaranteed upper bound on the throughput of any
	// completion of the partial placement.
	Bound bool
}

// Evaluate runs the performance model for the given execution graph and
// (possibly partial, when opts.Bound) placement.
func Evaluate(eg *plan.ExecGraph, placement *plan.Placement, cfg *Config, opts Options) (*Result, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	if err := placement.Validate(eg, cfg.Machine, !opts.Bound); err != nil {
		return nil, err
	}
	var ev Evaluator
	if err := ev.resolve(eg, cfg); err != nil {
		return nil, err
	}
	b := ev.newBuffers()
	ev.run(b, placement)
	return b.res, nil
}

// Evaluator is the performance model compiled for one execution graph
// and configuration: every vertex's statistics, every in-edge's
// selectivity and every spout's ingress share are resolved once, so a
// search that evaluates thousands of placements of one graph does not
// repeat the lookups; Bound and EvaluateScratch also reuse their
// buffers across calls. An Evaluator is not safe for concurrent use, and
// the graph and configuration must not change while it is in use.
type Evaluator struct {
	eg  *plan.ExecGraph
	cfg *Config
	// Per vertex, indexed by VertexID: the operator's Te, M and N, and
	// the external input rate of spout vertices.
	te, mem, size, ingress []float64
	// sel holds the producer's selectivity on the edge's stream for
	// every in-edge, consumers in topological order, each consumer's
	// edges in eg.In order.
	sel    []float64
	maxLat float64

	// The buffers Bound and EvaluateScratch reuse.
	bound, scratch buffers
}

// Compile checks cfg and resolves it against eg.
func Compile(eg *plan.ExecGraph, cfg *Config) (*Evaluator, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	ev := &Evaluator{}
	if err := ev.resolve(eg, cfg); err != nil {
		return nil, err
	}
	return ev, nil
}

// EvaluateScratch is Evaluate into a Result that ev owns and overwrites
// on its next EvaluateScratch call, so a search can inspect a placement
// without allocating. Keep nothing of it past that call.
func (ev *Evaluator) EvaluateScratch(placement *plan.Placement, opts Options) (*Result, error) {
	if err := placement.Validate(ev.eg, ev.cfg.Machine, !opts.Bound); err != nil {
		return nil, err
	}
	b := &ev.scratch
	if b.res == nil {
		*b = ev.newBuffers()
	} else {
		clear(b.floats)
		b.res.Bottlenecks = b.res.Bottlenecks[:0]
		b.res.Violations = b.res.Violations[:0]
	}
	ev.run(*b, placement)
	return b.res, nil
}

// Bound returns the throughput a bound evaluation (Options.Bound) of the
// partial placement predicts, without the back-pressure pass and the
// resource accounting that do not change it, and without allocating.
func (ev *Evaluator) Bound(placement *plan.Placement) (float64, error) {
	if err := placement.Validate(ev.eg, ev.cfg.Machine, false); err != nil {
		return 0, err
	}
	if ev.bound.res == nil {
		ev.bound = ev.newBuffers()
	}
	return ev.forward(placement, ev.bound.res.Rates, ev.bound.inputs), nil
}

// checkConfig validates the inputs that do not depend on the graph.
func checkConfig(cfg *Config) error {
	if cfg.Machine == nil {
		return fmt.Errorf("model: nil machine")
	}
	if err := cfg.Stats.Validate(); err != nil {
		return err
	}
	if cfg.Ingress <= 0 {
		return fmt.Errorf("model: ingress %v must be positive", cfg.Ingress)
	}
	return nil
}

// resolve fills ev for eg under cfg. A missing statistics entry is
// reported for the first such vertex in topological order.
func (ev *Evaluator) resolve(eg *plan.ExecGraph, cfg *Config) error {
	n := len(eg.Vertices)
	inEdges := 0
	for _, v := range eg.Vertices {
		inEdges += len(eg.In(v.ID))
	}
	f := make([]float64, 4*n+inEdges)
	*ev = Evaluator{
		eg:      eg,
		cfg:     cfg,
		te:      f[:n:n],
		mem:     f[n : 2*n : 2*n],
		size:    f[2*n : 3*n : 3*n],
		ingress: f[3*n : 4*n : 4*n],
		sel:     f[4*n:],
		maxLat:  maxRemoteLatency(cfg.Machine),
	}
	k := 0
	for _, id := range eg.TopoOrder() {
		v := eg.Vertex(id)
		st, ok := cfg.Stats[v.Op]
		if !ok {
			return fmt.Errorf("model: no stats for operator %q", v.Op)
		}
		ev.te[id], ev.mem[id], ev.size[id] = st.Te, st.M, st.N
		// Total ingress is split across spout vertices by fused replica
		// count.
		if v.Spout {
			ev.ingress[id] = cfg.Ingress * float64(v.Count) / float64(opReplicas(eg, v.Op))
		}
		for _, e := range eg.In(id) {
			ev.sel[k] = cfg.Stats[eg.Vertex(e.From).Op].Selectivity[e.Stream]
			k++
		}
	}
	return nil
}

// forward runs the model's forward pass (Formula 1 with the Formula 2
// fetch penalty) over rates and inputs, which it overwrites, and returns
// the throughput R. inputs must have capacity for one entry per in-edge.
func (ev *Evaluator) forward(placement *plan.Placement, rates []VertexRate, inputs []Input) float64 {
	eg := ev.eg
	inputs = inputs[:0]
	var throughput float64
	k := 0
	for _, id := range eg.TopoOrder() {
		v := eg.Vertex(id)
		in := eg.In(id)
		sel := ev.sel[k : k+len(in)]
		k += len(in)
		vr := &rates[id]
		*vr = VertexRate{}

		// Input rate: external for spouts, producer output otherwise.
		if v.Spout {
			vr.In = ev.ingress[id]
		} else {
			first := len(inputs)
			for i, e := range in {
				// The producer's output on e.Stream (processed rate x
				// stream selectivity) times the edge's share of it.
				out := rates[e.From].Processed * sel[i]
				share := out * e.Share
				inputs = addInput(inputs, first, e.From, share)
				vr.In += share
			}
			vr.InBy = inputs[first:len(inputs):len(inputs)]
		}

		// Effective fetch time: input-weighted over producers (tuples are
		// served first-come-first-serve with equal priority, so producers
		// contribute in proportion to their arrival rates).
		vr.Tf = ev.fetchTime(placement, v, vr)
		vr.T = ev.te[id] + vr.Tf
		vr.Capacity = float64(v.Count) * 1e9 / vr.T

		vr.Processed = math.Min(vr.In, vr.Capacity)
		vr.OverSupplied = vr.In > vr.Capacity*(1+1e-12)
		if v.Sink {
			throughput += vr.Processed
		}
	}
	return throughput
}

// buffers is the storage of one full evaluation: the Result, one
// backing array for the per-socket sums plus the backward pass's
// scratch, and the backing array of every vertex's InBy.
type buffers struct {
	res    *Result
	floats []float64
	inputs []Input
}

func (ev *Evaluator) newBuffers() buffers {
	n, sockets := len(ev.eg.Vertices), ev.cfg.Machine.Sockets
	b := buffers{
		floats: make([]float64, 2*sockets+sockets*sockets+n),
		inputs: make([]Input, 0, len(ev.sel)),
	}
	b.res = &Result{
		Rates:       make([]VertexRate, n),
		CPUUsed:     b.floats[:sockets:sockets],
		BWUsed:      b.floats[sockets : 2*sockets : 2*sockets],
		ChannelUsed: make([][]float64, sockets),
	}
	for i := range b.res.ChannelUsed {
		lo := 2*sockets + i*sockets
		b.res.ChannelUsed[i] = b.floats[lo : lo+sockets : lo+sockets]
	}
	return b
}

// run evaluates placement into b, whose sums must be zero and whose
// Bottlenecks and Violations must be empty.
func (ev *Evaluator) run(b buffers, placement *plan.Placement) {
	eg, m, res := ev.eg, ev.cfg.Machine, b.res
	order := eg.TopoOrder()
	sustainFrac := b.floats[2*m.Sockets+m.Sockets*m.Sockets:]

	res.Throughput = ev.forward(placement, res.Rates, b.inputs)
	for _, id := range order {
		if !res.Rates[id].OverSupplied {
			continue
		}
		if res.Bottlenecks == nil {
			res.Bottlenecks = make([]plan.VertexID, 0, len(order))
		}
		res.Bottlenecks = append(res.Bottlenecks, id)
	}

	// Backward pass: back-pressure throttling. A vertex sustains only
	// the fraction of its forward-pass rate that its consumers actually
	// drain; the factor compounds upstream (a saturated spout feeding an
	// over-supplied pipeline does not burn a full core — the bounded
	// queues stall it).
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		vr := &res.Rates[id]
		f := 1.0
		for _, e := range eg.Out(id) {
			w := &res.Rates[e.To]
			if w.In <= 0 {
				continue
			}
			// Fraction of arrivals consumer e.To drains in steady state.
			consume := w.Processed / w.In * sustainFrac[e.To]
			if consume < f {
				f = consume
			}
		}
		sustainFrac[id] = f
		vr.Sustained = vr.Processed * f
	}

	// Resource accounting (Eq. 3-5) at sustained rates; skipped for
	// unplaced vertices under Bound.
	for _, id := range order {
		vr := &res.Rates[id]
		sock, placed := placement.SocketOf(id)
		if !placed {
			continue
		}
		res.CPUUsed[sock] += vr.Sustained * vr.T
		res.BWUsed[sock] += vr.Sustained * ev.mem[id]
		if vr.In > 0 {
			procShare := vr.Sustained / vr.In
			for _, in := range vr.InBy {
				fsock, fplaced := placement.SocketOf(in.From)
				if fplaced && fsock != sock {
					res.ChannelUsed[fsock][sock] += in.Rate * procShare * ev.size[id]
				}
			}
		}
	}

	// Constraint checks (Eq. 3-5). CPU capacity is in attainable CPU
	// nanoseconds per second per socket.
	for s := 0; s < m.Sockets; s++ {
		if res.CPUUsed[s] > m.CyclesPerSocket*(1+1e-9) {
			res.Violations = append(res.Violations, Violation{Kind: "cpu", From: numa.SocketID(s), To: numa.SocketID(s), Demand: res.CPUUsed[s], Limit: m.CyclesPerSocket})
		}
		if res.BWUsed[s] > m.LocalBandwidth*(1+1e-9) {
			res.Violations = append(res.Violations, Violation{Kind: "membw", From: numa.SocketID(s), To: numa.SocketID(s), Demand: res.BWUsed[s], Limit: m.LocalBandwidth})
		}
		for d := 0; d < m.Sockets; d++ {
			if d == s {
				continue
			}
			if res.ChannelUsed[s][d] > m.Q(numa.SocketID(s), numa.SocketID(d))*(1+1e-9) {
				res.Violations = append(res.Violations, Violation{Kind: "channel", From: numa.SocketID(s), To: numa.SocketID(d), Demand: res.ChannelUsed[s][d], Limit: m.Q(numa.SocketID(s), numa.SocketID(d))})
			}
		}
	}
}

// fetchTime computes the input-weighted average Tf for vertex v under
// the configured policy. Under Options.Bound semantics, any pair with an
// unplaced endpoint is treated as collocated (Tf contribution 0), which
// is what makes the bounding function an upper bound.
func (ev *Evaluator) fetchTime(placement *plan.Placement, v *plan.Vertex, vr *VertexRate) float64 {
	switch ev.cfg.Policy {
	case TfZero:
		return 0
	case TfWorstCase:
		if v.Spout {
			return 0
		}
		lines := math.Ceil(ev.size[v.ID] / numa.CacheLineSize)
		return lines * ev.maxLat
	}
	if vr.In <= 0 {
		return 0
	}
	sock, placed := placement.SocketOf(v.ID)
	if !placed {
		return 0
	}
	var weighted float64
	for _, in := range vr.InBy {
		fsock, fplaced := placement.SocketOf(in.From)
		if !fplaced || fsock == sock {
			continue
		}
		weighted += in.Rate * ev.cfg.Machine.FetchCost(int(ev.size[v.ID]), fsock, sock)
	}
	return weighted / vr.In
}

// addInput adds rate to producer from's entry in inputs[first:],
// appending the entry on the producer's first edge.
func addInput(inputs []Input, first int, from plan.VertexID, rate float64) []Input {
	for i := first; i < len(inputs); i++ {
		if inputs[i].From == from {
			inputs[i].Rate += rate
			return inputs
		}
	}
	return append(inputs, Input{From: from, Rate: rate})
}

// opReplicas sums the fused replica counts of op's vertices.
func opReplicas(eg *plan.ExecGraph, op string) int {
	total := 0
	for _, v := range eg.OfOp(op) {
		total += v.Count
	}
	return total
}

func maxRemoteLatency(m *numa.Machine) float64 {
	var max float64
	for i := 0; i < m.Sockets; i++ {
		for j := 0; j < m.Sockets; j++ {
			if i != j && m.Latency[i][j] > max {
				max = m.Latency[i][j]
			}
		}
	}
	if max == 0 && m.Sockets > 0 {
		max = m.Latency[0][0]
	}
	return max
}

// Demand summarizes one vertex's maximum resource appetite under the
// current rates: the CPU time and memory bandwidth it would consume per
// second if processing at its arrival rate (capped by capacity). The
// branch-and-bound "can these fit on a socket" gate uses it.
type Demand struct {
	CPU float64 // ns of CPU time per second
	BW  float64 // bytes/sec of local memory bandwidth
}

// VertexDemand extracts the demand of vertex id from a prior evaluation,
// at the back-pressure sustained rate.
func (r *Result) VertexDemand(eg *plan.ExecGraph, cfg *Config, id plan.VertexID) Demand {
	vr := r.Rates[id]
	st := cfg.Stats[eg.Vertex(id).Op]
	return Demand{CPU: vr.Sustained * vr.T, BW: vr.Sustained * st.M}
}

// RelativeError is the paper's model-accuracy metric:
// |measured - estimated| / measured (Section 6.2).
func RelativeError(measured, estimated float64) float64 {
	if measured == 0 {
		return math.Inf(1)
	}
	return math.Abs(measured-estimated) / measured
}
