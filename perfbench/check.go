package main

import (
	"math/bits"

	"briskstream/internal/tuple"
)

// checker verifies an app's results against the benchmark's own
// reference over the same generated input. The sink feeds it every
// result row; verify then counts expected results and errors (missing,
// extra or wrong), and reset readies it for another run over the same
// input.
type checker interface {
	batch(b *tuple.Batch)
	tuple(t *tuple.Tuple)
	verify() (expected, errors int64)
	reset()
}

// wcWindow is WordCount's tumbling window length (event-ms).
const wcWindow = 1024

// wcCheck compares every (window, word) count with a reference built
// from the generated sentences. The counter emits one (word, count) row
// per word seen in a window, stamped with the window's end as Event.
type wcCheck struct {
	ref    []int64 // (window, word) → expected count
	got    []int64
	seen   []uint16 // deliveries per (window, word)
	stray  int64    // rows naming no known (window, word)
	wordOf []int16  // symbol id → vocabulary index, -1 if foreign
}

func newWCCheck(seed, n int64) *wcCheck {
	windows := n/wcWindow + 1
	c := &wcCheck{
		ref:  make([]int64, windows*32),
		got:  make([]int64, windows*32),
		seen: make([]uint16, windows*32),
	}
	for k := int64(1); k <= n; k++ {
		for _, w := range wcWords(seed, k) {
			c.ref[(k/wcWindow)*32+int64(w)]++
		}
	}
	for i, s := range tuple.InternSyms(wcVocabulary[:]...) {
		for int(s) >= len(c.wordOf) {
			c.wordOf = append(c.wordOf, -1)
		}
		c.wordOf[s] = int16(i)
	}
	return c
}

func (c *wcCheck) row(end int64, word tuple.Sym, count int64) {
	w := end/wcWindow - 1
	if end%wcWindow != 0 || w < 0 || int(word) >= len(c.wordOf) || c.wordOf[word] < 0 || w*32 >= int64(len(c.ref)) {
		c.stray++
		return
	}
	i := w*32 + int64(c.wordOf[word])
	c.got[i] = count
	c.seen[i]++
}

func (c *wcCheck) batch(b *tuple.Batch) {
	for r := 0; r < b.Len(); r++ {
		c.row(b.Event(r), b.Sym(0, r), b.Int(1, r))
	}
}

func (c *wcCheck) tuple(t *tuple.Tuple) { c.row(t.Event, t.Sym(0), t.Int(1)) }

func (c *wcCheck) verify() (expected, errors int64) {
	errors = c.stray
	for i, want := range c.ref {
		if want > 0 {
			expected++
		}
		switch s := int64(c.seen[i]); {
		case s == 0 && want > 0:
			errors++ // missing
		case s > 0 && want == 0:
			errors += s // extra
		case s > 0:
			errors += s - 1 // duplicates
			if c.got[i] != want {
				errors++ // wrong count
			}
		}
	}
	return expected, errors
}

func (c *wcCheck) reset() {
	clear(c.got)
	clear(c.seen)
	c.stray = 0
}

// LR window geometry, as the LinearRoad app configures it: avg_speed
// slides a lrStatSpan window by lrStatSlide, count_vehicle tumbles by
// lrStatSlide. Both emit one row per (window, segment) seen, stamped
// with the window end.
const (
	lrStatSpan  = 4096
	lrStatSlide = 1024
)

var (
	lrTollStream  = tuple.Intern("toll_nofity_stream")
	lrReplyStream = tuple.DefaultStreamID
)

// lrCheck counts results per event time. Toll notifications depend on
// how toll_notify's three inputs interleave, so only their number is
// checked: one per position report, plus one per segment-statistics
// update (stamped with its window end). Balance and daily-expenditure
// requests each get one reply. Where the event identifies the record,
// the vehicle id is checked too. Accident notifications depend on the
// interleaving and are not checked.
type lrCheck struct {
	seed  int64
	n     int64
	got   []uint8 // results per event time, saturating
	exp   []uint8 // expected results per event time (at most 201), built on first verify
	wrong int64   // rows whose vehicle id does not match their record
	stray int64   // rows with an event time outside the run
}

func newLRCheck(seed, n int64) *lrCheck {
	return &lrCheck{seed: seed, n: n, got: make([]uint8, n+lrStatSpan+1)}
}

func (c *lrCheck) row(stream tuple.StreamID, ev, id int64) {
	if stream != lrTollStream && stream != lrReplyStream {
		return
	}
	if ev < 0 || ev >= int64(len(c.got)) {
		c.stray++
		return
	}
	if c.got[ev] < 255 {
		c.got[ev]++
	}
	if ev%lrStatSlide != 0 && ev <= c.n {
		if r := lrRecordAt(c.seed, ev); r.vehicle != id {
			c.wrong++
		}
	}
}

func (c *lrCheck) batch(b *tuple.Batch) {
	if b.Stream != lrTollStream && b.Stream != lrReplyStream {
		return
	}
	for r := 0; r < b.Len(); r++ {
		c.row(b.Stream, b.Event(r), b.Int(0, r))
	}
}

func (c *lrCheck) tuple(t *tuple.Tuple) { c.row(t.Stream, t.Event, t.Int(0)) }

// lrExpected returns the number of checked results stamped with each
// event time 0..n+lrStatSpan for the first n records of seed.
func lrExpected(seed, n int64) []uint8 {
	exp := make([]uint8, n+lrStatSpan+1)
	panes := make([][2]uint64, n/lrStatSlide+1) // segments seen per tumbling pane
	for k := int64(1); k <= n; k++ {
		r := lrRecordAt(seed, k)
		exp[k]++ // a toll notification or a reply
		if r.typ == lrPosition {
			p := &panes[k/lrStatSlide]
			p[r.segment/64] |= 1 << (r.segment % 64)
		}
	}
	const perWindow = lrStatSpan / lrStatSlide
	for q := range int64(len(panes)) {
		p := panes[q]
		exp[(q+1)*lrStatSlide] += uint8(bits.OnesCount64(p[0]) + bits.OnesCount64(p[1]))
	}
	for q := -int64(perWindow - 1); q < int64(len(panes)); q++ {
		var u [2]uint64
		for p := max(q, 0); p < min(q+perWindow, int64(len(panes))); p++ {
			u[0] |= panes[p][0]
			u[1] |= panes[p][1]
		}
		exp[q*lrStatSlide+lrStatSpan] += uint8(bits.OnesCount64(u[0]) + bits.OnesCount64(u[1]))
	}
	return exp
}

func (c *lrCheck) verify() (expected, errors int64) {
	errors = c.wrong + c.stray
	if c.exp == nil {
		c.exp = lrExpected(c.seed, c.n)
	}
	for ev, want := range c.exp {
		expected += int64(want)
		d := int64(c.got[ev]) - int64(want)
		errors += max(d, -d)
	}
	return expected, errors
}

func (c *lrCheck) reset() {
	clear(c.got)
	c.wrong, c.stray = 0, 0
}
