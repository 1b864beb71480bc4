package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"briskstream/internal/checkpoint"
	"briskstream/internal/tuple"
)

// captureCollector records what a spout emits.
type captureCollector struct {
	out        []*tuple.Tuple
	watermarks []int64
}

func (c *captureCollector) Emit(vs ...tuple.Value) { c.out = append(c.out, tuple.New(vs...)) }
func (c *captureCollector) EmitTo(s string, vs ...tuple.Value) {
	c.out = append(c.out, tuple.OnStream(s, vs...))
}
func (c *captureCollector) Borrow() *tuple.Tuple   { return tuple.New() }
func (c *captureCollector) Send(t *tuple.Tuple)    { c.out = append(c.out, t) }
func (c *captureCollector) EmitWatermark(wm int64) { c.watermarks = append(c.watermarks, wm) }

func drain(t *testing.T, s *source) *captureCollector {
	t.Helper()
	c := &captureCollector{}
	for s.Next(c) == nil {
	}
	return c
}

func TestGeneratorsAreSeededAndSeekable(t *testing.T) {
	for name, emit := range map[string]emitFunc{"wc": emitWC, "lr": emitLR} {
		t.Run(name, func(t *testing.T) {
			const n = 300
			gen := func(seed int64) *source {
				return &source{seed: seed, n: n, emit: emit, sched: newSchedule(n, 0)}
			}
			a, b := drain(t, gen(7)), drain(t, gen(7))
			if len(a.out) != n || !reflect.DeepEqual(a.out, b.out) {
				t.Fatalf("same seed gave different streams (%d vs %d records)", len(a.out), len(b.out))
			}
			if reflect.DeepEqual(a.out, drain(t, gen(8)).out) {
				t.Fatal("seeds 7 and 8 gave the same stream")
			}
			if want := []int64{64, 128, 192, 256}; !reflect.DeepEqual(a.watermarks, want) {
				t.Fatalf("watermarks %v, want %v", a.watermarks, want)
			}
			for i, tp := range a.out {
				if tp.Event != int64(i+1) {
					t.Fatalf("record %d has Event %d", i+1, tp.Event)
				}
			}
			for _, k := range []int64{0, 1, 63, 64, 250} {
				s := gen(7)
				if err := s.SeekTo(k); err != nil {
					t.Fatal(err)
				}
				c := &captureCollector{}
				if err := s.Next(c); err != nil {
					t.Fatal(err)
				}
				if s.Offset() != k+1 || !reflect.DeepEqual(c.out[0], a.out[k]) {
					t.Fatalf("SeekTo(%d)+Next gave %v, want record %d = %v", k, c.out[0], k+1, a.out[k])
				}
			}
			if err := gen(7).SeekTo(n + 1); err == nil {
				t.Fatal("seek past the end succeeded")
			}
		})
	}
}

func TestDueTimeLatency(t *testing.T) {
	// Open loop at 1000 records/s: record k is due k ms after start.
	s := &resultSink{sched: newSchedule(100, 1000), warm: 10, n: 100}
	s.observe(int64(12*time.Millisecond), 10)  // due at 10 ms: 2 ms late
	s.observe(int64(12*time.Millisecond), 11)  // 1 ms
	s.observe(int64(20*time.Millisecond), 11)  // 9 ms
	s.observe(int64(20*time.Millisecond), 9)   // before warm: not sampled
	s.observe(int64(20*time.Millisecond), 101) // after the input: not sampled
	if s.lat.n != 3 {
		t.Fatalf("sampled %d results, want 3", s.lat.n)
	}
	if got := s.lat.quantile(0.5); math.Abs(got-2e6) > 2e6/256 {
		t.Fatalf("median latency %v ns, want 2 ms", got)
	}
	if len(s.perSec) != 1 || s.perSec[0].n != 3 {
		t.Fatalf("per-second split %+v", s.perSec)
	}

	// Closed loop: a record is due when its block was emitted.
	c := &resultSink{sched: newSchedule(200, 0), warm: 1, n: 200}
	c.sched.blocks[0].Store(1000)
	c.sched.blocks[1].Store(5000)
	c.observe(8000, 70) // block 1 emitted at 5000 ns
	c.observe(1500, 3)  // block 0 emitted at 1000 ns
	if got := c.lat.quantile(1); math.Abs(got-3000) > 3000/256 {
		t.Fatalf("max closed-loop latency %v, want 3000", got)
	}
	if got := c.lat.quantile(0.5); math.Abs(got-500) > 500/256 {
		t.Fatalf("min closed-loop latency %v, want 500", got)
	}
}

func TestHistPercentiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.observe(v)
	}
	if h.n != 100000 {
		t.Fatalf("count %d", h.n)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want) > want/256+1 {
			t.Errorf("q%v = %v, want %v within 1/256", q, got, want)
		}
	}
	var small hist
	for _, v := range []int64{5, 1, 3, -2} {
		small.observe(v)
	}
	if got := small.quantile(0.5); got != 1 {
		t.Errorf("median of {0,1,3,5} = %v, want 1 (negatives clamp to 0)", got)
	}
	if !math.IsNaN((&hist{}).quantile(0.5)) {
		t.Error("empty histogram has a quantile")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	for i := 0; i < 5000; i++ {
		lo, hi := histBounds(histBucket(int64(i * 997)))
		if v := int64(i * 997); v < lo || v >= hi {
			t.Fatalf("%d outside its bucket [%d, %d)", v, lo, hi)
		}
	}
}

// wcResults returns the counter rows a correct WordCount run emits.
func wcResults(c *wcCheck) []*tuple.Tuple {
	syms := tuple.InternSyms(wcVocabulary[:]...)
	var rows []*tuple.Tuple
	for i, want := range c.ref {
		if want == 0 {
			continue
		}
		r := tuple.New()
		r.AppendSym(syms[i%32])
		r.AppendInt(want)
		r.Event = int64(i/32+1) * wcWindow
		rows = append(rows, r)
	}
	return rows
}

// lrResults returns the rows a correct LinearRoad run emits on the
// checked streams.
func lrResults(seed, n int64) []*tuple.Tuple {
	var rows []*tuple.Tuple
	for ev, want := range lrExpected(seed, n) {
		for j := 0; j < int(want); j++ {
			r := tuple.New()
			r.Stream = lrTollStream
			id := int64(j) // a segment-statistics update
			if j == 0 && ev >= 1 && int64(ev) <= n {
				rec := lrRecordAt(seed, int64(ev))
				id = rec.vehicle
				if rec.typ != lrPosition {
					r.Stream = lrReplyStream
				}
			}
			r.AppendInt(id)
			r.AppendFloat(0)
			r.Event = int64(ev)
			rows = append(rows, r)
		}
	}
	return rows
}

func TestCheckersCatchDroppedDuplicatedAltered(t *testing.T) {
	const seed, n = 3, 10000
	wc := newWCCheck(seed, n)
	lr := newLRCheck(seed, n)
	cases := []struct {
		name  string
		chk   checker
		rows  []*tuple.Tuple
		alter func(*tuple.Tuple) *tuple.Tuple
		// identified reports whether a row's event names the record
		// it answers (so an altered id is detectable).
		identified func(*tuple.Tuple) bool
	}{
		{"wc", wc, wcResults(wc), func(r *tuple.Tuple) *tuple.Tuple {
			a := tuple.New()
			a.AppendSym(r.Sym(0))
			a.AppendInt(r.Int(1) + 1)
			a.Event = r.Event
			return a
		}, func(*tuple.Tuple) bool { return true }},
		{"lr", lr, lrResults(seed, n), func(r *tuple.Tuple) *tuple.Tuple {
			a := tuple.New()
			a.Stream = r.Stream
			a.AppendInt(r.Int(0) + 1)
			a.AppendFloat(0)
			a.Event = r.Event
			return a
		}, func(r *tuple.Tuple) bool { return r.Event%lrStatSlide != 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(rows []*tuple.Tuple) (int64, int64) {
				for _, r := range rows {
					tc.chk.tuple(r)
				}
				exp, errs := tc.chk.verify()
				tc.chk.reset()
				return exp, errs
			}
			exp, errs := run(tc.rows)
			if errs != 0 || exp != int64(len(tc.rows)) || exp == 0 {
				t.Fatalf("correct results: expected %d (rows %d), errors %d", exp, len(tc.rows), errs)
			}
			k := len(tc.rows) / 2
			for !tc.identified(tc.rows[k]) {
				k++
			}
			dropped := append(append([]*tuple.Tuple{}, tc.rows[:k]...), tc.rows[k+1:]...)
			duplicated := append(append([]*tuple.Tuple{}, tc.rows...), tc.rows[k])
			altered := append([]*tuple.Tuple{}, tc.rows...)
			altered[k] = tc.alter(tc.rows[k])
			for what, rows := range map[string][]*tuple.Tuple{"dropped": dropped, "duplicated": duplicated, "altered": altered} {
				if _, errs := run(rows); errs == 0 {
					t.Errorf("%s result not caught", what)
				}
			}
		})
	}
}

func TestTimedStorePassesThrough(t *testing.T) {
	ref := checkpoint.NewMemoryStore()
	ts := &timedStore{inner: checkpoint.NewMemoryStore()}
	for id := uint64(1); id <= 3; id++ {
		cp := &checkpoint.Checkpoint{ID: id, Tasks: map[string][]byte{"a#0": make([]byte, id*10)}}
		if err := ref.Save(cp); err != nil {
			t.Fatal(err)
		}
		if err := ts.Save(cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Prune(2); err != nil {
		t.Fatal(err)
	}
	if err := ts.Prune(2); err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id <= 4; id++ {
		a, aerr := ref.Load(id)
		b, berr := ts.Load(id)
		if !reflect.DeepEqual(a, b) || (aerr == nil) != (berr == nil) {
			t.Errorf("Load(%d): %v %v vs %v %v", id, a, aerr, b, berr)
		}
	}
	a, _ := ref.Latest()
	b, _ := ts.Latest()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Latest: %v vs %v", a, b)
	}
	if saves, _, bytes := ts.stats(); saves != 3 || bytes != 20 {
		t.Errorf("stats: %d saves, mean %v bytes", saves, bytes)
	}
}

// TestEngineRunsCheckClean runs each engine workload shape briefly on
// the real engine: the checkers must find every result.
func TestEngineRunsCheckClean(t *testing.T) {
	cases := map[string]struct {
		w    engineWorkload
		n    int64
		warm int64
	}{
		"wc-closed": {engineWorkload{app: wcApp}, 20000, 1},
		"lr-closed": {engineWorkload{app: lrApp}, 30000, 1},
		"lr-paced":  {engineWorkload{app: lrApp, rate: 200_000, checkpointEvery: 20 * time.Millisecond}, 40000, 1000},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			r, err := tc.w.run(5, tc.n, tc.warm, tc.w.app.newCheck(5, tc.n), nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.errors != 0 || r.expected == 0 || len(r.res.Errors) > 0 {
				t.Fatalf("expected %d results, %d errors, engine errors %v", r.expected, r.errors, r.res.Errors)
			}
			if r.sink.lat.n == 0 {
				t.Fatal("no latency samples")
			}
			if tc.w.checkpointEvery > 0 && r.coord.Completed() == 0 {
				t.Fatal("no checkpoint completed")
			}
		})
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
	for _, w := range spec.Workloads {
		if _, ok := engineWorkloads[w.Name]; !ok && w.Name != "plan" {
			t.Errorf("workload %s unknown to the program", w.Name)
		}
	}
}
