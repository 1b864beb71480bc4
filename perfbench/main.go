// Command perfbench is the repository benchmark: it drives BriskStream
// through its Go entry points on four workloads, checks every result
// against its own reference, and prints one JSON result line.
//
//	perfbench --workload wc-sat --seed 1 --seconds 10 --trace 0
//
// Run it through run.sh from the repository root, which builds it
// first. See README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/obs"
	"briskstream/internal/plan"
)

// metricDef is one reported metric: BENCHMARK.json declares the same
// names and units (a test keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_tps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_record", "us"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"plan_predicted_tps", "1/s"},
}

// layerOps are the non-source operators of WC and LR; each gets the
// per-operator metrics (0 on a workload whose app lacks it).
var layerOps = []string{
	"parser", "splitter", "counter", "sink",
	"dispatcher", "avg_speed", "las_avg_speed", "accident_detect", "count_vehicle",
	"toll_notify", "accident_notify", "daily_expen", "account_balance",
}

var planApps = []string{"WC", "FD", "SD", "LR"}

func perLayer() []metricDef {
	defs := []metricDef{
		{"source.lag_p99_ms", "ms"},
		{"source.records", "count"},
		{"queue.tuples_per_put", "count"},
		{"tuple.pool_ring_hit_ratio", "ratio"},
		{"runtime.allocs_per_record", "count"},
		{"engine.emit_to_sink_p50_ms", "ms"},
		{"checkpoint.completed", "count"},
		{"checkpoint.align_timeouts", "count"},
		{"checkpoint.duration_ms_p50", "ms"},
		{"checkpoint.duration_ms_max", "ms"},
		{"checkpoint.bytes", "B"},
		{"checkpoint.save_ms", "ms"},
		{"trace.mean_e2e_us", "us"},
		{"obs.trace_overhead_pct", "%"},
		{"model.evaluate_us", "us"},
		{"plan.alloc_mb", "MB"},
		{"plan.gc_count", "count"},
		{"runtime.gc_count", "count"},
		{"runtime.gc_pause_ms", "ms"},
	}
	for _, op := range layerOps {
		defs = append(defs,
			metricDef{"op." + op + ".service_ns", "ns"},
			metricDef{"op." + op + ".queue_wait_ns", "ns"},
			metricDef{"op." + op + ".busy_share", "ratio"},
			metricDef{"trace." + op + ".queue_us", "us"},
			metricDef{"trace." + op + ".service_us", "us"},
			metricDef{"trace." + op + ".transfer_us", "us"},
		)
	}
	for _, a := range planApps {
		defs = append(defs,
			metricDef{"rlas." + a + ".plan_s", "s"},
			metricDef{"rlas." + a + ".iterations", "count"},
			metricDef{"rlas." + a + ".predicted_tps", "1/s"},
			metricDef{"bnb." + a + ".explored", "count"},
			metricDef{"bnb." + a + ".pruned", "count"},
			metricDef{"bnb." + a + ".deduped", "count"},
		)
	}
	return defs
}

// engineWorkloads are the workloads that run the engine; "plan" runs
// only the planner.
var engineWorkloads = map[string]*engineWorkload{
	"wc-sat":        {app: wcApp, trialRecords: 500_000},
	"lr-sat":        {app: lrApp, trialRecords: 750_000},
	"lr-paced-ckpt": {app: lrApp, rate: 250_000, checkpointEvery: 250 * time.Millisecond},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "wc-sat, lr-sat, lr-paced-ckpt or plan")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace bool) error {
	if _, ok := engineWorkloads[workload]; !ok && workload != "plan" {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	host := hostFingerprint(workload, seed)
	if err := printJSON(map[string]any{"host": host}); err != nil {
		return err
	}
	if host.Oversubscribed {
		return fmt.Errorf("GOMAXPROCS %d > %d CPUs: oversubscribed, not comparable", host.GOMAXPROCS, host.NProc)
	}

	var out *outcome
	var err error
	if workload == "plan" {
		out, err = runPlan(seconds, trace)
	} else {
		out, err = runEngine(engineWorkloads[workload], seed, seconds, trace)
	}
	if err != nil {
		return err
	}

	defs := endToEnd
	if trace {
		defs = perLayer()
	}
	res := result{Correct: out.tally.failed == 0, Attempted: out.tally.attempted, Failed: out.tally.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		switch {
		case trace && !ok:
			v = 0 // layer not exercised by this workload
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %s is %v", d.name, v)
		case !trace && (!ok || v <= 0):
			return fmt.Errorf("end-to-end metric %s has no positive value", d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if trace {
		dir := filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d", workload, seed))
		out.files["layers.json"] = func(f io.Writer) error {
			return json.NewEncoder(f).Encode(map[string]any{"host": host, "info": out.info, "result": res})
		}
		if err := writeFiles(dir, out.files); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: traced run written to", dir)
	}
	if err := printJSON(map[string]any{"info": out.info}); err != nil {
		return err
	}
	return printJSON(res)
}

// outcome is a workload's measurement: metric values by name, the
// checked results, details printed beside the result, and the traced
// run's files.
type outcome struct {
	values map[string]float64
	tally  tally
	info   map[string]any
	files  map[string]func(io.Writer) error
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func writeFiles(dir string, files map[string]func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, write := range files {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		werr := write(f)
		if err := f.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			return fmt.Errorf("write %s: %w", name, werr)
		}
	}
	return nil
}

// runEngine measures an engine workload. The traced run measures half
// the seconds untraced, then half traced with the engine's obs registry
// and tracer registered; per-layer metrics come from the traced half,
// and the gap between the halves is the tracing overhead.
func runEngine(w *engineWorkload, seed int64, seconds float64, trace bool) (*outcome, error) {
	predicted, err := predictedTps(w.app.build())
	if err != nil {
		return nil, err
	}
	if !trace {
		m, err := w.measure(seed, seconds, nil)
		if err != nil {
			return nil, err
		}
		setup, err := w.setupSeconds(seed)
		if err != nil {
			return nil, err
		}
		m.metrics["setup_s"] = setup
		m.metrics["plan_predicted_tps"] = predicted
		return &outcome{values: m.metrics, tally: m.tally, info: m.info}, nil
	}

	base, err := w.measure(seed, seconds/2, nil)
	if err != nil {
		return nil, err
	}
	tr := &traced{reg: obs.NewRegistry(time.Second), tracer: obs.NewTracer(), spans: newSpanLog()}
	m, err := w.measure(seed, seconds/2, tr)
	if err != nil {
		return nil, err
	}
	layers, an := engineLayers(m, tr)
	if w.rate > 0 {
		layers["obs.trace_overhead_pct"] = 100 * (m.metrics["cpu_us_per_record"] - base.metrics["cpu_us_per_record"]) / base.metrics["cpu_us_per_record"]
	} else {
		layers["obs.trace_overhead_pct"] = 100 * (base.metrics["throughput_tps"] - m.metrics["throughput_tps"]) / base.metrics["throughput_tps"]
	}
	t := m.tally
	t.attempted += base.tally.attempted
	t.failed += base.tally.failed
	if msg := checkAnalysis(an); msg != "" {
		m.info["trace_invariant"] = msg
		t.failed++
		t.attempted++
	}
	m.info["critical_path"] = an
	files := map[string]func(io.Writer) error{
		"engine_trace.json": func(f io.Writer) error { return tr.tracer.WriteChrome(f, 0) },
		"bench_spans.json":  tr.spans.writeChrome,
	}
	return &outcome{values: layers, tally: t, info: m.info, files: files}, nil
}

// checkAnalysis checks the critical-path analyzer's invariant on the
// traced run: per-operator queue + service + transfer sum to within 10%
// of the mean end-to-end latency. It returns "" when it holds.
func checkAnalysis(an obs.Analysis) string {
	if an.Traces == 0 {
		return "no complete traces"
	}
	var sum float64
	for _, op := range an.Ops {
		sum += op.QueueNs + op.ServiceNs + op.TransferNs
	}
	if math.Abs(sum-an.MeanE2eNs) > 0.1*an.MeanE2eNs {
		return fmt.Sprintf("operator parts sum to %.0f ns, mean end-to-end is %.0f ns", sum, an.MeanE2eNs)
	}
	return ""
}

// engineLayers reads the per-layer metrics of the traced measurement's
// last engine run.
func engineLayers(m *measured, tr *traced) (map[string]float64, obs.Analysis) {
	r := m.last
	out := map[string]float64{}
	type opAcc struct{ svc, svcN, qw, qwN, processed uint64 }
	ops := map[string]*opAcc{}
	var delivered uint64
	for _, ts := range r.e.ProfileSnapshot().Tasks {
		a := ops[ts.Op]
		if a == nil {
			a = &opAcc{}
			ops[ts.Op] = a
		}
		a.svc += ts.ServiceNs
		a.svcN += ts.ServiceSamples
		a.qw += ts.QueueWaitNs
		a.qwN += ts.QueueWaitBatch
		a.processed += ts.Processed
		if ts.Op != "spout" {
			delivered += ts.Processed
		}
	}
	wall := float64(r.res.Duration)
	for op, a := range ops {
		if op == "spout" {
			continue
		}
		if a.svcN > 0 {
			per := float64(a.svc) / float64(a.svcN)
			out["op."+op+".service_ns"] = per
			out["op."+op+".busy_share"] = per * float64(a.processed) / wall
		}
		if a.qwN > 0 {
			out["op."+op+".queue_wait_ns"] = float64(a.qw) / float64(a.qwN)
		}
	}
	if r.res.QueuePuts > 0 {
		out["queue.tuples_per_put"] = float64(delivered) / float64(r.res.QueuePuts)
	}
	out["tuple.pool_ring_hit_ratio"] = ringHitRatio(tr.reg)
	out["runtime.allocs_per_record"] = float64(m.mem.Mallocs) / float64(m.memRecords)
	out["runtime.gc_count"] = float64(m.mem.NumGC)
	out["runtime.gc_pause_ms"] = float64(m.mem.PauseTotalNs) / 1e6
	out["engine.emit_to_sink_p50_ms"] = r.res.Latency.Quantile(0.5) / 1e6
	out["source.records"] = float64(r.src.k)
	if r.src.lag != nil {
		out["source.lag_p99_ms"] = r.src.lag.quantile(0.99) / 1e6
	}
	if r.coord != nil {
		out["checkpoint.completed"] = float64(r.coord.Completed())
		out["checkpoint.align_timeouts"] = float64(r.res.AlignTimeouts)
		tr.mu.Lock()
		if len(tr.ckptDurs) > 0 {
			out["checkpoint.duration_ms_p50"] = median(tr.ckptDurs)
			out["checkpoint.duration_ms_max"] = slices.Max(tr.ckptDurs)
		}
		tr.mu.Unlock()
		_, saveMs, bytes := r.store.stats()
		out["checkpoint.save_ms"] = saveMs
		out["checkpoint.bytes"] = bytes
	}
	an := tr.tracer.Analyze()
	out["trace.mean_e2e_us"] = an.MeanE2eNs / 1e3
	for _, op := range an.Ops {
		out["trace."+op.Op+".queue_us"] = op.QueueNs / 1e3
		out["trace."+op.Op+".service_us"] = op.ServiceNs / 1e3
		out["trace."+op.Op+".transfer_us"] = op.TransferNs / 1e3
	}
	for k, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(out, k)
		}
	}
	return out, an
}

// ringHitRatio is the share of tuple-pool gets served from a reverse
// recycling ring, summed over tasks from the engine's obs series.
func ringHitRatio(reg *obs.Registry) float64 {
	var hits, gets float64
	series, _ := reg.Status()["series"].([]map[string]any)
	for _, s := range series {
		v, _ := s["value"].(uint64)
		switch s["name"] {
		case "brisk_pool_ring_hits_total":
			hits += float64(v)
		case "brisk_pool_gets_total":
			gets += float64(v)
		}
	}
	if gets == 0 {
		return 0
	}
	return hits / gets
}

// predictedTps is the performance model's throughput for the plan an
// engine workload runs (every operator once, one socket) on the
// detected host: the model's side of the measured throughput.
func predictedTps(a *apps.App) (float64, error) {
	eg, err := plan.Build(a.Graph, nil, 1)
	if err != nil {
		return 0, err
	}
	res, err := model.Evaluate(eg, plan.CollocateAll(eg),
		&model.Config{Machine: numa.DetectHost().Machine(), Stats: a.Stats, Ingress: model.Saturated}, model.Options{})
	if err != nil {
		return 0, fmt.Errorf("model.Evaluate: %w", err)
	}
	return res.Throughput, nil
}

// runPlan measures the planner. The traced run repeats one untraced
// round, then a traced round whose spans and per-layer metrics it
// reports; the rounds' wall-time gap is the tracing overhead.
func runPlan(seconds float64, trace bool) (*outcome, error) {
	if !trace {
		values, rounds := measurePlan(seconds, nil)
		return &outcome{values: values, tally: planTally(rounds), info: planInfo(rounds)}, nil
	}
	base := runPlanRound(nil)
	spans := newSpanLog()
	r := runPlanRound(spans)
	rounds := []planRound{base, r}
	layers, err := planLayers(r, spans)
	if err != nil {
		return nil, err
	}
	layers["obs.trace_overhead_pct"] = 100 * (r.wall.Seconds() - base.wall.Seconds()) / base.wall.Seconds()
	files := map[string]func(io.Writer) error{"bench_spans.json": spans.writeChrome}
	return &outcome{values: layers, tally: planTally(rounds), info: planInfo(rounds), files: files}, nil
}

// planTally counts each app's plan as one attempt, failed when RLAS
// errs or returns an infeasible plan.
func planTally(rounds []planRound) tally {
	var t tally
	for _, r := range rounds {
		t.attempted += int64(len(r.plans))
		t.failed += int64(r.failed)
	}
	return t
}

func planInfo(rounds []planRound) map[string]any {
	info := map[string]any{"rounds": len(rounds)}
	var errs []string
	for _, p := range rounds[len(rounds)-1].plans {
		info[p.name+"_plan_ms"] = float64(p.wall) / 1e6
		info[p.name+"_explored"] = p.explored
		if p.err != nil {
			errs = append(errs, p.err.Error())
		}
	}
	sort.Strings(errs)
	if len(errs) > 0 {
		info["errors"] = strings.Join(errs, "; ")
	}
	return info
}
