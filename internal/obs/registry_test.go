package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryExpositionValidates(t *testing.T) {
	r := NewRegistry(60 * time.Second)
	g := r.Group("test")
	var n atomic.Uint64
	n.Store(42)
	g.Counter("brisk_things_total", "Things counted.", []L{{Key: "op", Value: "split"}, {Key: "task", Value: "split#0"}}, n.Load)
	g.Gauge("brisk_depth", "A depth.", nil, func() float64 { return 3.5 })
	h := g.Histogram("brisk_latency_ns", "Latency.", []L{{Key: "op", Value: "sink"}})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v) * 1000)
	}
	g.RateWindow("brisk_rate_tps", "A rate.", nil, n.Load)
	vw := g.ValueWindow("brisk_rolling_ns", "Rolling latency.", nil)
	vw.Observe(5000)
	r.Tick()

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		`brisk_things_total{op="split",task="split#0"} 42`,
		`# TYPE brisk_latency_ns histogram`,
		`brisk_latency_ns_bucket{op="sink",le="+Inf"} 100`,
		`brisk_latency_ns_count{op="sink"} 100`,
		`brisk_rate_tps{window="10s"}`,
		`brisk_rate_tps{window="1m0s"}`,
		`brisk_rolling_ns{window="10s",quantile="0.5"}`,
		`brisk_depth 3.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestRegistryEveryLineWellFormed(t *testing.T) {
	// Label values with quotes, backslashes and newlines must escape
	// cleanly and still validate line by line.
	r := NewRegistry(0)
	g := r.Group("test")
	g.Gauge("tricky", "Tricky labels.", []L{{Key: "path", Value: `a\b"c` + "\nd"}}, func() float64 { return 1 })
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
}

func TestGroupClearDropsSeries(t *testing.T) {
	r := NewRegistry(0)
	g := r.Group("engine")
	g.Gauge("stale_metric", "Old engine.", nil, func() float64 { return 1 })
	r.Group("process").Gauge("kept_metric", "Process level.", nil, func() float64 { return 2 })
	g.Clear()
	g.Gauge("fresh_metric", "New engine.", nil, func() float64 { return 3 })
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "stale_metric") {
		t.Errorf("cleared series still exposed:\n%s", out)
	}
	for _, want := range []string{"kept_metric", "fresh_metric"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q after Clear:\n%s", want, out)
		}
	}
}

func TestStatusJSONEncodes(t *testing.T) {
	r := NewRegistry(0)
	g := r.Group("test")
	g.Counter("c_total", "C.", nil, func() uint64 { return 7 })
	h := g.Histogram("h_ns", "H.", nil)
	h.Observe(100)
	g.RateWindow("r_tps", "R.", nil, func() uint64 { return 1 })
	g.ValueWindow("v_ns", "V.", nil).Observe(50)
	b, err := json.Marshal(r.Status())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"uptime_seconds", "c_total", "h_ns", "p99"} {
		if !strings.Contains(string(b), want) {
			t.Errorf("status missing %q: %s", want, b)
		}
	}
}

// TestDurationHistogramExposesSeconds: a duration histogram is fed
// nanoseconds and exposes seconds, with sub-second buckets resolved
// instead of lumped into the first (le=1) bucket.
func TestDurationHistogramExposesSeconds(t *testing.T) {
	r := NewRegistry(0)
	g := r.Group("test")
	h := g.DurationHistogram("brisk_pause_seconds", "Pauses (s).", nil)
	h.Observe(float64(3 * time.Millisecond))
	h.Observe(float64(20 * time.Millisecond))
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	le3ms := formatFloat(BucketBound(bucketIndex(3e6)) * 1e-9)
	for _, want := range []string{
		`brisk_pause_seconds_bucket{le="` + le3ms + `"} 1`,
		`brisk_pause_seconds_bucket{le="+Inf"} 2`,
		`brisk_pause_seconds_sum 0.023`,
		`brisk_pause_seconds_count 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, `le="1"`) {
		t.Errorf("sub-second durations landed in the le=1 bucket\n%s", out)
	}
	row := r.Status()["series"].([]map[string]any)[0]
	if p50 := row["p50"].(float64); p50 < 0.002 || p50 > 0.004 {
		t.Errorf("status p50 = %v s, want about 0.003", p50)
	}
}
