// Package bnb implements BriskStream's branch-and-bound placement
// optimizer (Section 4, Algorithm 2). Nodes of the search tree are
// partial placements; the bounding function evaluates the performance
// model with every unplaced vertex treated as collocated with all of its
// producers (Tf = 0), which upper-bounds the throughput of every
// completion, so subtrees whose bound is no better than the incumbent
// solution are pruned safely.
//
// Three heuristics shrink the search space:
//
//  1. Collocation branching: the search branches on producer-consumer
//     pairs (edges), not single vertices, skipping placements that cannot
//     change any output rate.
//  2. Best-fit + redundancy elimination: when all predecessors of the
//     pair are already placed, the consumer's rate is fully determined,
//     so only the single best placement is explored; interchangeable
//     sockets (identical remaining resources and identical NUMA distance
//     to every already-used socket) are collapsed to one representative.
//  3. Graph compression is handled upstream by plan.Build's ratio, which
//     fuses replicas into fewer, heavier vertices.
package bnb

import (
	"errors"
	"sort"
	"strconv"
	"time"

	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/plan"
)

// ErrNoFeasiblePlacement is returned when no complete placement satisfies
// the resource constraints — the signal Algorithm 1 uses to stop scaling.
var ErrNoFeasiblePlacement = errors.New("bnb: no feasible placement")

// Config tunes the search.
type Config struct {
	// NodeLimit caps explored nodes (0 = default 200000). When the limit
	// is hit the best solution found so far is returned.
	NodeLimit int
	// WarmStart seeds the incumbent with a first-fit placement before
	// the search begins, enabling pruning from the first node (Appendix
	// D reports this helps in some cases by earlier pruning).
	WarmStart bool
	// NoDedup disables identical-sub-problem elimination (visited-state
	// detection); used by the ablation benchmarks.
	NoDedup bool
}

// Result is the outcome of a placement search.
type Result struct {
	// Placement is the best valid placement found.
	Placement *plan.Placement
	// Eval is the full model evaluation of Placement.
	Eval *model.Result
	// Explored and Pruned count search-tree nodes.
	Explored, Pruned int
	// Deduped counts nodes skipped because an identical partial
	// placement was already expanded via a different decision order
	// (the redundancy-elimination half of heuristic 2).
	Deduped int
	// Elapsed is the optimization wall time (Table 7 reports it).
	Elapsed time.Duration
}

type node struct {
	placement *plan.Placement
	// next indexes into the pair list: pairs[:next] are resolved.
	next  int
	bound float64
}

// Optimize searches for the throughput-maximizing placement of eg on
// cfg.Machine. It returns ErrNoFeasiblePlacement if the constraints admit
// no complete placement.
func Optimize(eg *plan.ExecGraph, cfg *model.Config, bc Config) (*Result, error) {
	start := time.Now()
	limit := bc.NodeLimit
	if limit <= 0 {
		limit = 200_000
	}
	pairs := eg.Pairs()
	res := &Result{}

	// Every node is evaluated against the same graph and configuration:
	// compile the model once.
	ev, err := model.Compile(eg, cfg)
	if err != nil {
		return nil, err
	}
	root := &node{placement: plan.Unplaced(eg)}
	if root.bound, err = ev.Bound(root.placement); err != nil {
		return nil, err
	}

	var best *plan.Placement
	var bestEval *model.Result
	bestValue := -1.0

	// Warm start: seed the incumbent with a first-fit-style greedy
	// placement so bound-based pruning is active from the first node.
	if bc.WarmStart {
		if p := greedyPlacement(eg, cfg); p != nil {
			if full, err := model.Evaluate(eg, p, cfg, model.Options{}); err == nil && full.Feasible() {
				best, bestEval, bestValue = p, full, full.Throughput
			}
		}
	}

	// visited detects identical partial placements reached through
	// different decision orders (redundancy elimination, heuristic 2),
	// keyed by the placement's exact encoding.
	visited := map[string]bool{}
	var key []byte
	var kids []child

	stack := []*node{root}
	for len(stack) > 0 && res.Explored < limit {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Explored++

		if bestValue >= 0 && n.bound <= bestValue {
			res.Pruned++
			continue
		}
		if !bc.NoDedup {
			key = n.placement.AppendKey(key[:0])
			if visited[string(key)] {
				res.Deduped++
				continue
			}
			visited[string(key)] = true
		}

		// Advance past decisions whose endpoints are both placed
		// (collocation heuristic: such decisions are no longer relevant).
		next := n.next
		for next < len(pairs) && bothPlaced(n.placement, pairs[next]) {
			next++
		}

		if next >= len(pairs) {
			// All decisions resolved. Any vertex not covered by an edge
			// pair cannot exist in a validated graph, so the placement
			// is complete; accept it if valid.
			full, err := ev.EvaluateScratch(n.placement, model.Options{})
			if err != nil {
				continue
			}
			if full.Feasible() && full.Throughput > bestValue {
				// A new incumbent: keep an evaluation of its own.
				if bestEval, err = model.Evaluate(eg, n.placement, cfg, model.Options{}); err != nil {
					return nil, err
				}
				bestValue = bestEval.Throughput
				best = n.placement
			}
			continue
		}

		if kids, err = branch(kids, eg, cfg, ev, n, pairs, next); err != nil {
			return nil, err
		}
		// Push worse children first so the most promising is explored
		// next (DFS best-first hybrid): better incumbents earlier mean
		// more pruning later. Only pushed children get a placement.
		sort.Slice(kids, func(i, j int) bool { return kids[i].bound < kids[j].bound })
		for i := range kids {
			c := &kids[i]
			if bestValue >= 0 && c.bound <= bestValue {
				res.Pruned++
				continue
			}
			stack = append(stack, &node{placement: c.apply(n.placement), next: next, bound: c.bound})
		}
	}
	res.Elapsed = time.Since(start)
	if best == nil {
		return res, ErrNoFeasiblePlacement
	}
	res.Placement = best
	res.Eval = bestEval
	return res, nil
}

// greedyPlacement produces a quick feasible-if-possible placement for
// the warm start: topological first-fit with the sustained-demand gate.
func greedyPlacement(eg *plan.ExecGraph, cfg *model.Config) *plan.Placement {
	p := plan.Unplaced(eg)
	for _, id := range eg.TopoOrder() {
		cur, err := model.Evaluate(eg, p, cfg, model.Options{Bound: true})
		if err != nil {
			return nil
		}
		placed := false
		for s := 0; s < cfg.Machine.Sockets; s++ {
			if fits(eg, cfg, cur, p, s, id) {
				p.Place(id, numa.SocketID(s))
				placed = true
				break
			}
		}
		if !placed {
			// Fall back to the least-loaded socket; the final full
			// evaluation decides feasibility.
			bestS, bestCPU := 0, cur.CPUUsed[0]
			for s := 1; s < cfg.Machine.Sockets; s++ {
				if cur.CPUUsed[s] < bestCPU {
					bestS, bestCPU = s, cur.CPUUsed[s]
				}
			}
			p.Place(id, numa.SocketID(bestS))
		}
	}
	return p
}

func bothPlaced(p *plan.Placement, pair [2]plan.VertexID) bool {
	_, a := p.SocketOf(pair[0])
	_, b := p.SocketOf(pair[1])
	return a && b
}

// child is one candidate of a branching step: the first n vertices of
// vs go to socket s, with the bound that placement achieves.
type child struct {
	vs    [2]plan.VertexID
	n     int
	s     int
	bound float64
}

// apply returns a copy of parent with c's vertices placed.
func (c *child) apply(parent *plan.Placement) *plan.Placement {
	p := parent.Clone()
	for _, v := range c.vs[:c.n] {
		p.Place(v, numa.SocketID(c.s))
	}
	return p
}

// branch overwrites kids with the children of n for the collocation
// decision pairs[next] = (producer, consumer).
func branch(kids []child, eg *plan.ExecGraph, cfg *model.Config, ev *model.Evaluator, n *node, pairs [][2]plan.VertexID, next int) ([]child, error) {
	prod, cons := pairs[next][0], pairs[next][1]
	m := cfg.Machine

	// Evaluate the current partial placement once: child feasibility
	// gates and best-fit use its rates and socket usage.
	cur, err := ev.EvaluateScratch(n.placement, model.Options{Bound: true})
	if err != nil {
		return nil, err
	}

	_, prodPlaced := n.placement.SocketOf(prod)
	_, consPlaced := n.placement.SocketOf(cons)

	both := child{vs: [2]plan.VertexID{prod, cons}, n: 2}
	prodOnly := child{vs: [2]plan.VertexID{prod}, n: 1}
	consOnly := child{vs: [2]plan.VertexID{cons}, n: 1}
	kids = kids[:0]
	// add appends the candidate c on each representative socket that
	// passes the fit gate (every one when gated is false).
	add := func(c child, reps []int, gated bool) {
		for _, s := range reps {
			if !gated || fits(eg, cfg, cur, n.placement, s, c.vs[:c.n]...) {
				c.s = s
				kids = append(kids, c)
			}
		}
	}

	var repBuf [16]int
	reps := socketRepresentatives(repBuf[:0], eg, cfg, n.placement, cur)
	switch {
	case !prodPlaced && !consPlaced:
		add(both, reps, true)
		// Decision not satisfied: place the producer alone; the consumer
		// stays open for a later decision.
		add(prodOnly, reps, true)
	case prodPlaced && !consPlaced:
		add(consOnly, reps, true)
	case !prodPlaced && consPlaced:
		add(prodOnly, reps, true)
	}
	if len(kids) == 0 {
		// Constraint-gated dead end: relax the fit gate so search can
		// continue; the full evaluation at the leaf still rejects
		// genuinely infeasible plans.
		switch {
		case !prodPlaced && !consPlaced:
			add(both, reps, false)
		case prodPlaced && !consPlaced:
			add(consOnly, reps, false)
		default:
			add(prodOnly, reps, false)
		}
	}

	// Bound each child by placing its vertices into n's placement (they
	// are all unplaced there) and taking them out again.
	for i := range kids {
		c := &kids[i]
		for _, v := range c.vs[:c.n] {
			n.placement.Place(v, numa.SocketID(c.s))
		}
		c.bound, err = ev.Bound(n.placement)
		for _, v := range c.vs[:c.n] {
			n.placement.Unplace(v)
		}
		if err != nil {
			return nil, err
		}
	}

	// Best-fit heuristic: when every predecessor of the consumer is
	// already placed AND the consumer has no downstream operators, its
	// output rate is fully determined by this decision and its placement
	// cannot affect anything else — keep only the best child (ties
	// broken toward the socket with least remaining CPU). Applying the
	// greedy rule to vertices with consumers is unsafe: maximizing their
	// own output rate can exhaust the socket a downstream operator
	// needs, which is exactly the local-optimum trap the paper observes
	// in FF (Section 6.4).
	if prodPlaced && !consPlaced && len(eg.Out(cons)) == 0 &&
		allPredecessorsPlaced(eg, n.placement, cons) && len(kids) > 1 {
		bestIdx, bestBound := 0, -1.0
		var bestRemain float64
		for i, c := range kids {
			remain := m.CyclesPerSocket - cur.CPUUsed[c.s] // c places cons on c.s
			if c.bound > bestBound+1e-9 || (c.bound > bestBound-1e-9 && remain < bestRemain) {
				bestIdx, bestBound, bestRemain = i, c.bound, remain
			}
		}
		kids[0] = kids[bestIdx]
		kids = kids[:1]
	}
	return kids, nil
}

// allPredecessorsPlaced reports whether every producer of v is placed.
func allPredecessorsPlaced(eg *plan.ExecGraph, p *plan.Placement, v plan.VertexID) bool {
	for _, e := range eg.In(v) {
		if _, ok := p.SocketOf(e.From); !ok {
			return false
		}
	}
	return true
}

// fits applies the branching feasibility gate: would adding the given
// vertices to socket s respect the CPU and local-bandwidth constraints?
// Demand must be estimated with the fetch cost the vertex would actually
// pay on socket s for its already-placed producers: the bounded (Tf=0)
// demand underestimates under-supplied remote consumers, whose real
// demand is In x (Te + Tf) — packing sockets to the brim with the
// optimistic estimate makes every completion infeasible.
func fits(eg *plan.ExecGraph, cfg *model.Config, cur *model.Result, p *plan.Placement, s int, vs ...plan.VertexID) bool {
	cpu := cur.CPUUsed[s]
	bw := cur.BWUsed[s]
	for _, v := range vs {
		cpuD, bwD := demandAt(eg, cfg, cur, p, v, numa.SocketID(s))
		cpu += cpuD
		bw += bwD
	}
	return cpu <= cfg.Machine.CyclesPerSocket*(1+1e-9) && bw <= cfg.Machine.LocalBandwidth*(1+1e-9)
}

// demandAt estimates the CPU (ns/s) and memory-bandwidth (bytes/s)
// demand of vertex v if placed on socket s, charging Formula 2 for every
// producer that is already placed elsewhere. Producers being co-assigned
// in the same branching step are still unplaced in p and so count as
// residing on s.
func demandAt(eg *plan.ExecGraph, cfg *model.Config, cur *model.Result, p *plan.Placement, v plan.VertexID, s numa.SocketID) (cpu, bw float64) {
	vtx := eg.Vertex(v)
	st := cfg.Stats[vtx.Op]
	vr := cur.Rates[v]
	t := st.Te
	if vr.In > 0 {
		var weighted float64
		for _, in := range vr.InBy {
			fsock, placed := p.SocketOf(in.From)
			if !placed {
				// Co-assigned to s in this step (local) or still open
				// (optimistic zero, bound semantics): no fetch cost.
				continue
			}
			if fsock != s {
				weighted += in.Rate * cfg.Machine.FetchCost(int(st.N), fsock, s)
			}
		}
		t += weighted / vr.In
	}
	cap := float64(vtx.Count) * 1e9 / t
	processed := vr.In
	if vtx.Spout || processed > cap {
		processed = cap
	}
	// Scale by the back-pressure sustained fraction from the bound
	// evaluation: upstream of a pipeline bottleneck a vertex never runs
	// at its capacity.
	if vr.Processed > 0 {
		processed *= vr.Sustained / vr.Processed
	}
	return processed * t, processed * st.M
}

// socketKey is a socket's load signature: its CPU and bandwidth load
// formatted at %.6g. A %.6g rendering is at most 13 bytes
// ("-1.23457e+308"), so it always fits in place and the NUL padding
// makes == on keys equal to equality of the rendered strings.
type socketKey struct{ cpu, bw [16]byte }

func loadKey(cur *model.Result, s int) socketKey {
	var k socketKey
	strconv.AppendFloat(k.cpu[:0], cur.CPUUsed[s], 'g', 6, 64)
	strconv.AppendFloat(k.bw[:0], cur.BWUsed[s], 'g', 6, 64)
	return k
}

// socketRepresentatives appends to dst one socket per equivalence class
// (redundancy elimination), the lowest-numbered member of each. Two
// sockets are interchangeable when they carry the same CPU and bandwidth
// load (equal at %.6g) and sit at equal NUMA latency from every socket
// currently in use.
func socketRepresentatives(dst []int, eg *plan.ExecGraph, cfg *model.Config, p *plan.Placement, cur *model.Result) []int {
	m := cfg.Machine
	var usedBuf [16]bool
	used := usedBuf[:]
	if m.Sockets > len(used) {
		used = make([]bool, m.Sockets)
	}
	used = used[:m.Sockets]
	for _, v := range eg.Vertices {
		if s, ok := p.SocketOf(v.ID); ok {
			used[s] = true
		}
	}

	var keyBuf [16]socketKey
	keys := keyBuf[:0]
	first := len(dst)
	for s := 0; s < m.Sockets; s++ {
		k := loadKey(cur, s)
		dup := false
		for i, r := range dst[first:] {
			if keys[i] == k && sameLatencies(m, s, r, used) {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, s)
			keys = append(keys, k)
		}
	}
	return dst
}

// sameLatencies reports whether sockets a and b sit at equal latency
// from every used socket.
func sameLatencies(m *numa.Machine, a, b int, used []bool) bool {
	for u, ok := range used {
		if ok && m.L(numa.SocketID(a), numa.SocketID(u)) != m.L(numa.SocketID(b), numa.SocketID(u)) {
			return false
		}
	}
	return true
}
