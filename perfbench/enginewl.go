package main

import (
	"fmt"
	"maps"
	"runtime"
	"sync"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/checkpoint"
	"briskstream/internal/engine"
	"briskstream/internal/obs"
)

// appSpec is one app as the benchmark drives it: the program's
// topology with the benchmark's generator as its spout and its result
// checker behind the benchmark's sink.
type appSpec struct {
	build    func() *apps.App
	emit     emitFunc
	newCheck func(seed, n int64) checker
}

var (
	wcApp = appSpec{apps.WordCount, emitWC, func(seed, n int64) checker { return newWCCheck(seed, n) }}
	lrApp = appSpec{apps.LinearRoad, emitLR, func(seed, n int64) checker { return newLRCheck(seed, n) }}
)

// engineWorkload runs an app on the engine with every operator at
// replication 1 (one spout). Closed loop (rate 0): back-to-back trials
// of a fixed input, each emitted as fast as back-pressure admits and
// drained to EOF. Open loop: one run paced at rate, with aligned
// checkpoints every checkpointEvery into a timed in-memory store.
type engineWorkload struct {
	app             appSpec
	trialRecords    int64
	rate            float64
	checkpointEvery time.Duration
}

// Closed-loop trials: the first is a warm-up (the process's first
// second runs ~30% slow), then trials repeat until the run's seconds
// are spent, at least minTrials of them; each metric is the median
// over trials.
const minTrials = 3

// pacedWarmup is the paced run's unmeasured lead-in: records due in it
// are emitted and checked but neither timed nor costed.
const pacedWarmup = time.Second

// setupReps is how many topology builds + engine.New calls setup_s is
// the median of: one call takes tens of microseconds.
const setupReps = 1001

// traced holds the observability the traced run registers on an
// engine (see engine.RegisterObs and engine.RegisterTrace).
type traced struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	spans  *spanLog

	mu       sync.Mutex
	ckptDurs []float64 // ms, begin to persist
}

// engineRun is one engine.Run over n records and what it measured.
type engineRun struct {
	e        *engine.Engine
	res      *engine.Result
	sink     *resultSink
	src      *source
	store    *timedStore
	coord    *checkpoint.Coordinator
	started  time.Time
	n, warm  int64
	cpuWarm  time.Duration // process CPU when record warm was emitted
	cpuEnd   time.Duration
	peakMB   float64 // process peak RSS when Run returned, before checking
	expected int64
	errors   int64
}

func (w *engineWorkload) config(store *timedStore) (engine.Config, *checkpoint.Coordinator) {
	cfg := engine.DefaultConfig()
	if w.checkpointEvery == 0 {
		return cfg, nil
	}
	coord := checkpoint.NewCoordinator(store)
	cfg.Checkpoint = coord
	cfg.CheckpointInterval = w.checkpointEvery
	return cfg, coord
}

// topology builds the app and swaps in the benchmark's spout and sink.
func (w *engineWorkload) topology(src *source, snk *resultSink) engine.Topology {
	a := w.app.build()
	repl := map[string]int{}
	for _, nd := range a.Graph.Nodes() {
		repl[nd.Name] = 1
	}
	topo := a.Topology(repl)
	topo.Spouts = map[string]func() engine.Spout{"spout": func() engine.Spout { return src }}
	topo.Operators = maps.Clone(topo.Operators)
	topo.Operators["sink"] = func() engine.Operator { return snk }
	return topo
}

// run executes one engine run over records 1..n of seed, checked by chk
// (reset afterwards). Records before warm are not timed.
func (w *engineWorkload) run(seed, n, warm int64, chk checker, tr *traced) (*engineRun, error) {
	r := &engineRun{n: n, warm: warm}
	sched := newSchedule(n, w.rate)
	r.sink = &resultSink{check: chk, sched: sched, warm: warm, n: n}
	r.src = &source{seed: seed, n: n, emit: w.app.emit, sched: sched, warm: warm,
		onWarm: func() { r.cpuWarm = cpuTime() }}
	if w.rate > 0 {
		r.src.lag = &hist{}
	}
	r.store = &timedStore{inner: checkpoint.NewMemoryStore()}
	cfg, coord := w.config(r.store)
	r.coord = coord
	if tr != nil {
		r.src.spans, r.store.spans = tr.spans, tr.spans
		cfg.ProfileSampleEvery = 16
		cfg.TraceSampleEvery = 256
	}
	span := tr.spanLog().begin("engine.New")
	e, err := engine.New(w.topology(r.src, r.sink), cfg)
	tr.spanLog().end(span)
	if err != nil {
		return nil, fmt.Errorf("engine.New: %w", err)
	}
	r.e = e
	if tr != nil {
		e.RegisterObs(tr.reg.Group("engine"), obs.NewJournal(256))
		e.RegisterTrace(tr.tracer)
		if coord != nil {
			coord.SetOnComplete(func(_ uint64, began, done time.Time) {
				tr.mu.Lock()
				tr.ckptDurs = append(tr.ckptDurs, float64(done.Sub(began))/1e6)
				tr.mu.Unlock()
			})
		}
	}
	span = tr.spanLog().begin("engine.Run")
	r.started = time.Now()
	r.res, err = e.Run(0)
	r.cpuEnd = cpuTime()
	r.peakMB = peakRSSMB()
	tr.spanLog().end(span)
	r.src.finish()
	if err != nil {
		return nil, fmt.Errorf("engine.Run: %w", err)
	}
	r.expected, r.errors = chk.verify()
	if len(r.res.Errors) > 0 || r.sink.last.IsZero() {
		r.errors = r.expected // an engine error fails every record of the run
	}
	chk.reset()
	return r, nil
}

func (tr *traced) spanLog() *spanLog {
	if tr == nil {
		return nil
	}
	return tr.spans
}

// tally accumulates attempted/failed results over runs.
type tally struct{ attempted, failed int64 }

// add counts a run's expected results as attempted and its missing,
// extra or wrong ones as failed (extras beyond the expected count are
// attempts too).
func (t *tally) add(r *engineRun) {
	t.attempted += max(r.expected, r.errors)
	t.failed += r.errors
}

// measured is one workload measurement: end-to-end metrics plus the
// last run, which the traced run reads per-layer metrics from.
type measured struct {
	metrics map[string]float64
	info    map[string]any // printed beside the result, not compared
	tally   tally
	last    *engineRun
	mem     runtime.MemStats // deltas over the measured runs
	records int64            // records the timing covers
	// memRecords is the records mem covers (the paced run's warm-up
	// records allocate too).
	memRecords int64
}

// measure runs the workload for seconds (after its warm-up) and
// returns its end-to-end metrics except setup_s.
func (w *engineWorkload) measure(seed int64, seconds float64, tr *traced) (*measured, error) {
	if w.rate > 0 {
		return w.measurePaced(seed, seconds, tr)
	}
	m := &measured{metrics: map[string]float64{}, info: map[string]any{}}
	chk := w.app.newCheck(seed, w.trialRecords)
	var tps, p50, p99 []float64
	var cpu time.Duration
	var ms0, ms1 runtime.MemStats
	var spent time.Duration
	for trial := 0; trial <= minTrials || spent.Seconds() < seconds; trial++ {
		runtime.GC()
		if trial == 1 {
			runtime.ReadMemStats(&ms0)
		}
		cpu0 := cpuTime()
		r, err := w.run(seed, w.trialRecords, 1, chk, tr)
		if err != nil {
			return nil, err
		}
		m.tally.add(r)
		m.last = r
		if trial == 0 {
			continue
		}
		spent += time.Since(r.started)
		cpu += r.cpuEnd - cpu0
		m.records += r.n
		tps = append(tps, float64(r.n)/r.sink.last.Sub(r.started).Seconds())
		p50 = append(p50, r.sink.lat.quantile(0.50)/1e6)
		p99 = append(p99, r.sink.lat.quantile(0.99)/1e6)
	}
	runtime.ReadMemStats(&ms1)
	m.mem = memDelta(ms0, ms1)
	m.memRecords = m.records
	m.metrics["throughput_tps"] = median(tps)
	m.metrics["latency_p50_ms"] = median(p50)
	m.metrics["latency_p99_ms"] = median(p99)
	m.metrics["cpu_us_per_record"] = float64(cpu) / 1e3 / float64(m.records)
	m.metrics["mem_peak_mb"] = m.last.peakMB
	m.info["trial_tps"] = tps
	m.info["trial_p99_ms"] = p99
	m.info["trial_records"] = w.trialRecords
	m.info["latency_samples_per_trial"] = m.last.sink.lat.n
	return m, nil
}

func (w *engineWorkload) measurePaced(seed int64, seconds float64, tr *traced) (*measured, error) {
	m := &measured{metrics: map[string]float64{}, info: map[string]any{}}
	warm := int64(w.rate*pacedWarmup.Seconds()) + 1
	n := warm + int64(w.rate*seconds)
	chk := w.app.newCheck(seed, n)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	r, err := w.run(seed, n, warm, chk, tr)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	m.mem = memDelta(ms0, ms1)
	m.tally.add(r)
	m.last = r
	m.records = n - warm
	m.memRecords = n
	measuredFrom := r.sink.sched.start.Add(time.Duration(r.sink.sched.dueNs(warm)))
	m.metrics["throughput_tps"] = float64(n-warm) / r.sink.last.Sub(measuredFrom).Seconds()
	// Latency percentiles per second of due time, median over the full
	// seconds: one slow second (a GC cycle meeting a checkpoint) moves
	// the whole-run p99 by half.
	var p50, p99 []float64
	for _, h := range r.sink.perSec[:min(len(r.sink.perSec), max(int(seconds), 1))] {
		p50 = append(p50, h.quantile(0.50)/1e6)
		p99 = append(p99, h.quantile(0.99)/1e6)
	}
	m.metrics["latency_p50_ms"] = median(p50)
	m.metrics["latency_p99_ms"] = median(p99)
	m.metrics["cpu_us_per_record"] = float64(r.cpuEnd-r.cpuWarm) / 1e3 / float64(n-warm)
	m.metrics["mem_peak_mb"] = r.peakMB
	m.info["latency_samples"] = r.sink.lat.n
	m.info["latency_p99_ms_per_second"] = p99
	m.info["latency_p99_ms_whole_run"] = r.sink.lat.quantile(0.99) / 1e6
	m.info["offered_tps"] = w.rate
	return m, nil
}

// setupSeconds is the median time to build the topology and call
// engine.New (with a fresh checkpoint coordinator where the workload
// checkpoints): what a deployment pays before Run.
func (w *engineWorkload) setupSeconds(seed int64) (float64, error) {
	xs := make([]float64, 0, setupReps)
	runtime.GC()
	for range setupReps {
		t0 := time.Now()
		sched := newSchedule(w.trialRecords, w.rate)
		src := &source{seed: seed, n: w.trialRecords, emit: w.app.emit, sched: sched}
		snk := &resultSink{sched: sched}
		cfg, _ := w.config(&timedStore{inner: checkpoint.NewMemoryStore()})
		if _, err := engine.New(w.topology(src, snk), cfg); err != nil {
			return 0, fmt.Errorf("engine.New: %w", err)
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

func memDelta(a, b runtime.MemStats) runtime.MemStats {
	return runtime.MemStats{
		Mallocs:      b.Mallocs - a.Mallocs,
		TotalAlloc:   b.TotalAlloc - a.TotalAlloc,
		NumGC:        b.NumGC - a.NumGC,
		PauseTotalNs: b.PauseTotalNs - a.PauseTotalNs,
	}
}
