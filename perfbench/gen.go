package main

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"briskstream/internal/engine"
)

// Generated inputs. Record k (k = 1, 2, ...) is a pure function of
// (seed, k), so a stream restarts anywhere in O(1) and the checkers
// regenerate exactly what the engine saw. Every record advances the
// event clock by one (Event = k) and a watermark follows every
// watermarkEvery records, matching the apps' own spouts.
const watermarkEvery = 64

// mix is splitmix64's finalizer: a cheap, well-distributed hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func recordHash(seed, k int64) uint64 {
	return mix(uint64(seed)*0x2545f4914f6cdd1d ^ uint64(k))
}

// wcVocabulary is WordCount's 32-word key space: low cardinality, so
// the counter's window grouping folds many rows per key.
var wcVocabulary = [32]string{
	"stream", "process", "socket", "memory", "tuple", "operator", "plan",
	"latency", "remote", "local", "numa", "core", "thread", "queue",
	"batch", "window", "shuffle", "branch", "bound", "model", "rate",
	"output", "input", "scale", "brisk", "storm", "flink", "graph",
	"vertex", "edge", "cache", "line",
}

const wcSentenceWords = 10

// wcWords returns the vocabulary indices of record k's ten words (five
// bits of one hash each).
func wcWords(seed, k int64) [wcSentenceWords]uint8 {
	h := recordHash(seed, k)
	var w [wcSentenceWords]uint8
	for i := range w {
		w[i] = uint8(h & 31)
		h >>= 5
	}
	return w
}

// LR record types, as the LinearRoad app's dispatcher reads them.
const (
	lrPosition = int64(0)
	lrBalance  = int64(2)
	lrDaily    = int64(3)
)

// lrRecord is one LinearRoad input record in the app's schema order:
// (type, vehicle, speed, xway, lane, segment, position).
type lrRecord struct {
	typ, vehicle, speed, xway, lane, segment, position int64
}

// lrSegments is the number of road segments; the checker tracks which
// segments a window saw as a 128-bit set.
const lrSegments = 100

// lrRecordAt draws record k with the app spout's distribution: 0.3%
// balance and 0.2% daily-expenditure requests, 50k vehicles, 100
// segments, and a stopped vehicle (speed 0) every 500 records.
func lrRecordAt(seed, k int64) lrRecord {
	h := recordHash(seed, k)
	g := mix(h)
	r := lrRecord{typ: lrPosition}
	switch p := h % 1000; {
	case p < 3:
		r.typ = lrBalance
	case p < 5:
		r.typ = lrDaily
	}
	r.vehicle = int64((h >> 10) % 50000)
	r.speed = int64((h >> 26) % 100)
	if (h>>33)%500 == 0 {
		r.speed = 0
	}
	r.xway = int64((h >> 42) & 1)
	r.lane = int64((h >> 43) & 3)
	r.segment = int64((h >> 45) % lrSegments)
	r.position = int64(g % 528000)
	return r
}

// emitFunc sends record k through the collector with Event = k.
type emitFunc func(c engine.Collector, seed, k int64, buf []byte) []byte

func emitWC(c engine.Collector, seed, k int64, buf []byte) []byte {
	buf = buf[:0]
	for i, w := range wcWords(seed, k) {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, wcVocabulary[w]...)
	}
	out := c.Borrow()
	out.AppendStrBytes(buf)
	out.Event = k
	c.Send(out)
	return buf
}

func emitLR(c engine.Collector, seed, k int64, buf []byte) []byte {
	r := lrRecordAt(seed, k)
	out := c.Borrow()
	out.AppendInt(r.typ)
	out.AppendInt(r.vehicle)
	out.AppendInt(r.speed)
	out.AppendInt(r.xway)
	out.AppendInt(r.lane)
	out.AppendInt(r.segment)
	out.AppendInt(r.position)
	out.Event = k
	c.Send(out)
	return buf
}

// schedule is when each record is due. In a closed loop a record is
// due when the generator emits it: the generator stamps the emission
// time of every watermarkEvery-th record and a record's due time is
// its block's stamp (at most one block early, ~0.1 ms at LR's
// capacity). In an open loop record k is due at start + k/rate
// whatever back-pressure does, so generator lag and coordinated
// omission land in the measured latency.
type schedule struct {
	start  time.Time
	period float64        // ns between records; 0 = closed loop
	blocks []atomic.Int64 // closed loop: emission time per block, ns since start
}

func newSchedule(n int64, rate float64) *schedule {
	s := &schedule{}
	if rate > 0 {
		s.period = 1e9 / rate
	} else {
		s.blocks = make([]atomic.Int64, n/watermarkEvery+1)
	}
	return s
}

// dueNs is record k's due time in ns since start.
func (s *schedule) dueNs(k int64) int64 {
	if s.period > 0 {
		return int64(float64(k) * s.period)
	}
	return s.blocks[k/watermarkEvery].Load()
}

// source is the benchmark's spout: n records from seed, closed loop
// (one record per Next, as fast as back-pressure admits) or paced on
// its schedule (every due record per Next). A paced generator ahead of
// schedule yields through runtime.Gosched and returns: on a 2-vCPU
// Linux VM a timer sleep wakes ~1 ms late (bursts of 250 records at
// 250k/s), and a raw nanosleep keeps its P until sysmon retakes it,
// which made latency swing 3x between seconds. It implements
// engine.ReplayableSpout: Offset is the number of records emitted, the
// unit checkpoints record.
type source struct {
	seed  int64
	n, k  int64
	emit  emitFunc
	sched *schedule
	buf   []byte

	// warm is the first record measured; onWarm runs once when it is
	// emitted (the paced run marks its CPU-time baseline there).
	warm   int64
	onWarm func()
	// lag records, per paced Next that emits, how late the first due
	// record went out (ns). Only the generator goroutine writes it.
	lag *hist
	// span brackets the generator's lifetime in the traced run.
	spans *spanLog
	span  int
}

// burstMax caps the records one paced Next emits after a stall, so the
// engine still reaches its checkpoint injection point between calls.
const burstMax = 256

func (s *source) Next(c engine.Collector) error {
	if s.k >= s.n {
		s.finish()
		return io.EOF
	}
	if s.sched.start.IsZero() {
		s.span = s.spans.begin("generator")
		s.sched.start = time.Now()
	}
	if s.sched.period == 0 {
		s.k++
		if s.k%watermarkEvery == 0 || s.k == 1 {
			s.sched.blocks[s.k/watermarkEvery].Store(int64(time.Since(s.sched.start)))
		}
		s.one(c)
		return nil
	}
	now := int64(time.Since(s.sched.start))
	due := s.sched.dueNs(s.k + 1)
	if now < due {
		runtime.Gosched()
		return nil
	}
	if s.k+1 >= s.warm && s.lag != nil {
		s.lag.observe(now - due)
	}
	for i := 0; i < burstMax && s.k < s.n && s.sched.dueNs(s.k+1) <= now; i++ {
		s.k++
		s.one(c)
	}
	return nil
}

func (s *source) one(c engine.Collector) {
	if s.k == s.warm && s.onWarm != nil {
		s.onWarm()
	}
	s.buf = s.emit(c, s.seed, s.k, s.buf)
	if s.k%watermarkEvery == 0 {
		c.EmitWatermark(s.k)
	}
}

func (s *source) finish() {
	if s.span != 0 {
		s.spans.end(s.span)
		s.span = 0
	}
}

// Offset implements engine.ReplayableSpout.
func (s *source) Offset() int64 { return s.k }

// SeekTo implements engine.ReplayableSpout: records are a function of
// (seed, k), so seeking is setting k.
func (s *source) SeekTo(offset int64) error {
	if offset < 0 || offset > s.n {
		return fmt.Errorf("perfbench: seek to %d outside [0, %d]", offset, s.n)
	}
	s.k = offset
	return nil
}
