package rlas

import (
	"maps"
	"math"
	"sync"
	"testing"

	"briskstream/internal/apps"
	"briskstream/internal/bnb"
	"briskstream/internal/model"
	"briskstream/internal/numa"
)

// goldenPlan is one app's RLAS outcome on Server A. A change to how
// plans are represented or evaluated must reproduce it exactly; only
// the predicted throughput may move, in its last bits, when the order
// of a floating-point sum changes.
type goldenPlan struct {
	iterations  int
	explored    int
	replication map[string]int
	throughput  float64
}

var golden = map[string]goldenPlan{
	"WC": {5, 7500, map[string]int{"counter": 75, "parser": 4, "sink": 42, "splitter": 18, "spout": 5}, 76908956.692819625},
	"FD": {10, 11581, map[string]int{"parser": 14, "predict": 106, "sink": 6, "spout": 12}, 7999999.9999999972},
	"SD": {11, 13658, map[string]int{"moving_avg": 63, "parser": 14, "sink": 6, "spike_detect": 39, "spout": 22}, 10702265.244177694},
	"LR": {23, 30000, map[string]int{
		"accident_detect": 11, "accident_notify": 11, "account_balance": 1, "avg_speed": 15,
		"count_vehicle": 15, "daily_expen": 1, "dispatcher": 5, "las_avg_speed": 12,
		"parser": 4, "sink": 8, "spout": 10, "toll_notify": 51,
	}, 10355064.881105781},
}

// serverAConfig configures RLAS for app on Server A the way
// Topology.Optimize does: saturated ingress, node limit 1500 and the
// replication seeded from the analytic estimate at 70% fill.
func serverAConfig(t testing.TB, a *apps.App) Config {
	t.Helper()
	m := numa.ServerA()
	seed, err := SeedReplication(a.Graph, a.Stats, m.TotalCores(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model:   &model.Config{Machine: m, Stats: a.Stats, Ingress: model.Saturated},
		BnB:     bnb.Config{NodeLimit: 1500},
		Initial: seed,
	}
}

// serverAPlan is one app's RLAS run on Server A.
type serverAPlan struct {
	name string
	cfg  Config
	res  *Result
	err  error
}

var (
	serverAOnce  sync.Once
	serverAPlans []serverAPlan
)

// planServerA runs RLAS once for each of the paper's four apps and
// shares the results between the tests below.
func planServerA(t *testing.T) []serverAPlan {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the full RLAS search for four apps")
	}
	serverAOnce.Do(func() {
		for _, a := range apps.All() {
			p := serverAPlan{name: a.Name, cfg: serverAConfig(t, a)}
			p.res, p.err = Optimize(a.Graph, p.cfg)
			serverAPlans = append(serverAPlans, p)
		}
	})
	return serverAPlans
}

// TestGoldenServerASearch pins the whole RLAS search for the paper's
// four apps: scaling rounds, branch-and-bound nodes, the chosen
// replication and the predicted throughput.
func TestGoldenServerASearch(t *testing.T) {
	for _, p := range planServerA(t) {
		want, ok := golden[p.name]
		if !ok {
			t.Errorf("no golden plan for app %s", p.name)
			continue
		}
		if p.err != nil {
			t.Fatalf("%s: %v", p.name, p.err)
		}
		explored := 0
		for _, it := range p.res.Trace {
			explored += it.Explored
		}
		if p.res.Iterations != want.iterations || explored != want.explored {
			t.Errorf("%s: %d iterations / %d explored, want %d / %d", p.name, p.res.Iterations, explored, want.iterations, want.explored)
		}
		if !maps.Equal(p.res.Replication, want.replication) {
			t.Errorf("%s: replication %v, want %v", p.name, p.res.Replication, want.replication)
		}
		if rel := math.Abs(p.res.Eval.Throughput-want.throughput) / want.throughput; rel > 1e-9 {
			t.Errorf("%s: predicted throughput %.17g, want %.17g (rel. diff %g)", p.name, p.res.Eval.Throughput, want.throughput, rel)
		}
	}
}

// TestEvaluateDeterministic: evaluating one plan repeatedly gives
// bit-identical results. Sums over producers once ran in Go map order,
// so the same plan could yield different throughput and resource totals
// from call to call.
func TestEvaluateDeterministic(t *testing.T) {
	for _, p := range planServerA(t) {
		if p.err != nil {
			t.Fatalf("%s: %v", p.name, p.err)
		}
		first, err := model.Evaluate(p.res.Graph, p.res.Placement, p.cfg.Model, model.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			ev, err := model.Evaluate(p.res.Graph, p.res.Placement, p.cfg.Model, model.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(ev.Throughput) != math.Float64bits(first.Throughput) ||
				!sameBits(ev.CPUUsed, first.CPUUsed) || !sameBits(ev.BWUsed, first.BWUsed) {
				t.Fatalf("%s: evaluation %d differs: throughput %v vs %v", p.name, i, ev.Throughput, first.Throughput)
			}
			for s := range ev.ChannelUsed {
				if !sameBits(ev.ChannelUsed[s], first.ChannelUsed[s]) {
					t.Fatalf("%s: evaluation %d: channel use from S%d differs", p.name, i, s)
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
