// Package plan represents streaming execution plans: the execution graph
// obtained by replicating each logical operator (Section 2.2), the
// placement of every replica onto CPU sockets, and the graph compression
// heuristic (Section 4, heuristic 3) that fuses multiple replicas of one
// operator into a single schedulable instance to shrink the search space.
package plan

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"briskstream/internal/graph"
	"briskstream/internal/numa"
)

// VertexID identifies a vertex of an execution graph.
type VertexID int

// Vertex is one schedulable unit: a group of Count replicas of one
// logical operator that are placed together. With compress ratio 1 every
// vertex holds exactly one replica (the most fine-grained optimization).
type Vertex struct {
	ID    VertexID
	Op    string // logical operator name
	Index int    // group index within the operator
	Count int    // number of fused replicas (>= 1)
	Spout bool
	Sink  bool
}

// Label renders "op#index" for reports.
func (v *Vertex) Label() string { return fmt.Sprintf("%s#%d", v.Op, v.Index) }

// Edge is a replica-level data flow with a rate share: the fraction (or
// multiple, for broadcast) of the producer vertex's output on Stream that
// flows along this edge.
type Edge struct {
	From, To VertexID
	Stream   string
	Share    float64
}

// ExecGraph is the execution graph: the logical DAG expanded by a
// replication configuration and optionally compressed.
type ExecGraph struct {
	App         *graph.Graph
	Vertices    []*Vertex
	Replication map[string]int // logical operator -> total replicas
	Ratio       int            // compress ratio used to build the graph

	// Compressed adjacency: the out-edges of vertex v are
	// outEdges[outOff[v]:outOff[v+1]], its in-edges likewise, each list
	// in Build's edge order.
	outEdges, inEdges []Edge
	outOff, inOff     []int32
	byOp              map[string][]*Vertex
	topo              []VertexID
}

// Build expands the logical graph under the given replication
// configuration (operator name -> replica count; absent means 1) and
// compress ratio. Replicas of one operator are fused into
// ceil(replicas/ratio) vertices with counts as even as possible. The
// topological order and the per-vertex adjacency are computed here,
// once; the accessors below only read them.
func Build(app *graph.Graph, replication map[string]int, ratio int) (*ExecGraph, error) {
	if ratio < 1 {
		return nil, fmt.Errorf("plan: compress ratio %d < 1", ratio)
	}
	logical, err := app.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	eg := &ExecGraph{
		App:         app,
		Replication: map[string]int{},
		Ratio:       ratio,
		byOp:        map[string][]*Vertex{},
	}
	for _, n := range app.Nodes() {
		repl := replication[n.Name]
		if repl <= 0 {
			repl = 1
		}
		eg.Replication[n.Name] = repl
		groups := (repl + ratio - 1) / ratio
		base, extra := repl/groups, repl%groups
		for i := 0; i < groups; i++ {
			count := base
			if i < extra {
				count++
			}
			v := &Vertex{
				ID:    VertexID(len(eg.Vertices)),
				Op:    n.Name,
				Index: i,
				Count: count,
				Spout: n.IsSpout,
				Sink:  n.IsSink,
			}
			eg.Vertices = append(eg.Vertices, v)
			eg.byOp[n.Name] = append(eg.byOp[n.Name], v)
		}
	}
	eg.topo = make([]VertexID, 0, len(eg.Vertices))
	for _, op := range logical {
		for _, v := range eg.byOp[op] {
			eg.topo = append(eg.topo, v.ID)
		}
	}

	// Count each vertex's edges, turn the counts into offsets, then
	// place every edge at its vertex's next free slot.
	n := len(eg.Vertices)
	eg.outOff = make([]int32, n+1)
	eg.inOff = make([]int32, n+1)
	eg.expand(func(e Edge) {
		eg.outOff[e.From+1]++
		eg.inOff[e.To+1]++
	})
	for v := 0; v < n; v++ {
		eg.outOff[v+1] += eg.outOff[v]
		eg.inOff[v+1] += eg.inOff[v]
	}
	eg.outEdges = make([]Edge, eg.outOff[n])
	eg.inEdges = make([]Edge, eg.inOff[n])
	outNext := slices.Clone(eg.outOff[:n])
	inNext := slices.Clone(eg.inOff[:n])
	eg.expand(func(e Edge) {
		eg.outEdges[outNext[e.From]] = e
		outNext[e.From]++
		eg.inEdges[inNext[e.To]] = e
		inNext[e.To]++
	})
	return eg, nil
}

// expand calls emit for every replica-level edge, in logical-edge order
// and within one logical edge by producer, then consumer.
func (eg *ExecGraph) expand(emit func(Edge)) {
	for _, le := range eg.App.Edges() {
		prods := eg.byOp[le.From]
		cons := eg.byOp[le.To]
		total := eg.Replication[le.To]
		for _, p := range prods {
			switch le.Partitioning {
			case graph.Global:
				emit(Edge{From: p.ID, To: cons[0].ID, Stream: le.Stream, Share: 1})
			case graph.Broadcast:
				for _, c := range cons {
					emit(Edge{From: p.ID, To: c.ID, Stream: le.Stream, Share: float64(c.Count)})
				}
			default: // Shuffle, Fields: split in proportion to fused size
				for _, c := range cons {
					emit(Edge{From: p.ID, To: c.ID, Stream: le.Stream, Share: float64(c.Count) / float64(total)})
				}
			}
		}
	}
}

// Out returns the outgoing edges of a vertex.
func (eg *ExecGraph) Out(id VertexID) []Edge {
	return eg.outEdges[eg.outOff[id]:eg.outOff[id+1]:eg.outOff[id+1]]
}

// In returns the incoming edges of a vertex.
func (eg *ExecGraph) In(id VertexID) []Edge {
	return eg.inEdges[eg.inOff[id]:eg.inOff[id+1]:eg.inOff[id+1]]
}

// Vertex returns the vertex with the given id.
func (eg *ExecGraph) Vertex(id VertexID) *Vertex { return eg.Vertices[id] }

// OfOp returns the vertices of one logical operator in index order.
func (eg *ExecGraph) OfOp(op string) []*Vertex { return eg.byOp[op] }

// TotalReplicas sums the replica counts across all vertices.
func (eg *ExecGraph) TotalReplicas() int {
	n := 0
	for _, v := range eg.Vertices {
		n += v.Count
	}
	return n
}

// TopoOrder returns vertex ids topologically ordered (producers first),
// derived from the logical order at Build time. The slice is shared by
// every caller: read it, never modify it.
func (eg *ExecGraph) TopoOrder() []VertexID { return eg.topo }

// Pairs returns every producer-consumer vertex pair with a direct edge,
// in deterministic order. This is the collocation-decision list of the
// branch-and-bound heuristic 1.
func (eg *ExecGraph) Pairs() [][2]VertexID {
	seen := map[[2]VertexID]bool{}
	var out [][2]VertexID
	for _, id := range eg.topo {
		for _, e := range eg.Out(id) {
			k := [2]VertexID{e.From, e.To}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// Placement maps vertices to sockets: a dense per-vertex socket slice
// indexed by VertexID, with -1 marking an unplaced vertex.
type Placement struct {
	socketOf []numa.SocketID
	placed   int
}

// unplaced marks a vertex without a socket.
const unplaced numa.SocketID = -1

// NewPlacement returns an empty placement; it grows as vertices are
// placed. Unplaced(eg) sizes it for a graph up front.
func NewPlacement() *Placement { return &Placement{} }

// Unplaced returns a placement of eg with every vertex unplaced.
func Unplaced(eg *ExecGraph) *Placement {
	p := &Placement{socketOf: make([]numa.SocketID, len(eg.Vertices))}
	for i := range p.socketOf {
		p.socketOf[i] = unplaced
	}
	return p
}

// Place assigns a vertex (id >= 0) to a socket; socket -1 unplaces it.
func (p *Placement) Place(v VertexID, s numa.SocketID) {
	if s == unplaced {
		p.Unplace(v)
		return
	}
	for int(v) >= len(p.socketOf) {
		p.socketOf = append(p.socketOf, unplaced)
	}
	if p.socketOf[v] == unplaced {
		p.placed++
	}
	p.socketOf[v] = s
}

// Unplace removes a vertex's assignment.
func (p *Placement) Unplace(v VertexID) {
	if int(v) < len(p.socketOf) && p.socketOf[v] != unplaced {
		p.socketOf[v] = unplaced
		p.placed--
	}
}

// SocketOf returns the socket of v and whether v is placed.
func (p *Placement) SocketOf(v VertexID) (numa.SocketID, bool) {
	if int(v) >= len(p.socketOf) || p.socketOf[v] == unplaced {
		return 0, false
	}
	return p.socketOf[v], true
}

// Placed returns the number of placed vertices.
func (p *Placement) Placed() int { return p.placed }

// Complete reports whether all vertices of eg are placed.
func (p *Placement) Complete(eg *ExecGraph) bool { return p.placed == len(eg.Vertices) }

// Clone copies the placement.
func (p *Placement) Clone() *Placement {
	return &Placement{socketOf: slices.Clone(p.socketOf), placed: p.placed}
}

// AppendKey appends an exact encoding of the placement to buf: one
// uvarint of socket+1 (0 = unplaced) per vertex, up to the last placed
// one. Two placements get the same key iff they place the same vertices
// on the same sockets.
func (p *Placement) AppendKey(buf []byte) []byte {
	n := len(p.socketOf)
	for n > 0 && p.socketOf[n-1] == unplaced {
		n--
	}
	for _, s := range p.socketOf[:n] {
		buf = binary.AppendUvarint(buf, uint64(s+1))
	}
	return buf
}

// Validate checks that every placed vertex refers to a valid vertex and
// socket, and (if requireComplete) that all vertices are placed exactly
// once — the "allocated exactly once" constraint of Section 3.2.
func (p *Placement) Validate(eg *ExecGraph, m *numa.Machine, requireComplete bool) error {
	for id, s := range p.socketOf {
		if s == unplaced {
			continue
		}
		if id >= len(eg.Vertices) {
			return fmt.Errorf("plan: placement refers to unknown vertex %d", id)
		}
		if int(s) < 0 || int(s) >= m.Sockets {
			return fmt.Errorf("plan: vertex %d placed on invalid socket %d", id, s)
		}
	}
	if requireComplete && !p.Complete(eg) {
		return fmt.Errorf("plan: only %d of %d vertices placed", p.placed, len(eg.Vertices))
	}
	return nil
}

// String renders the placement grouped by socket.
func (p *Placement) String(eg *ExecGraph) string {
	bySocket := map[numa.SocketID][]string{}
	for id, s := range p.socketOf {
		if s != unplaced {
			bySocket[s] = append(bySocket[s], eg.Vertex(VertexID(id)).Label())
		}
	}
	var sockets []int
	for s := range bySocket {
		sockets = append(sockets, int(s))
	}
	sort.Ints(sockets)
	var b strings.Builder
	for _, s := range sockets {
		names := bySocket[numa.SocketID(s)]
		sort.Strings(names)
		fmt.Fprintf(&b, "S%d: %s\n", s, strings.Join(names, ", "))
	}
	return b.String()
}

// Plan is a complete streaming execution plan: what runs where on which
// machine.
type Plan struct {
	Graph     *ExecGraph
	Machine   *numa.Machine
	Placement *Placement
}

// Validate checks the whole plan.
func (pl *Plan) Validate() error {
	if pl.Graph == nil || pl.Machine == nil || pl.Placement == nil {
		return fmt.Errorf("plan: incomplete plan")
	}
	if err := pl.Machine.Validate(); err != nil {
		return err
	}
	return pl.Placement.Validate(pl.Graph, pl.Machine, true)
}

// CollocateAll returns a placement putting every vertex on socket 0 —
// the initial node of the branch-and-bound search.
func CollocateAll(eg *ExecGraph) *Placement {
	return &Placement{socketOf: make([]numa.SocketID, len(eg.Vertices)), placed: len(eg.Vertices)}
}
