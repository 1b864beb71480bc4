package vec

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"briskstream/internal/tuple"
)

// Bounded-exhaustive equivalence checks: every kernel runs over every
// batch of up to maxRows rows drawn from a small value domain, with
// every selection (each subset of rows, ascending and reversed), and
// must agree with a scalar reference computed from the input tuples
// the batch was built from.

const maxRows = 4

// The per-row value domain: an int, a string that may be empty, and a
// float derived from the int (so the float path of the projection
// kernels runs too).
var (
	domainInts = []int64{-1, 0, 7}
	domainStrs = []string{"", "ab"}
)

const outStream tuple.StreamID = 3

// inputRow builds the scalar input tuple for row r with domain value v,
// with metadata distinct per row.
func inputRow(r, v int) *tuple.Tuple {
	t := &tuple.Tuple{}
	i := domainInts[v%len(domainInts)]
	t.AppendInt(i)
	t.AppendStr(domainStrs[v/len(domainInts)])
	t.AppendFloat(float64(i) / 2)
	t.Ts = time.Unix(0, int64(1000+r))
	t.Event = int64(100 + r)
	t.TraceID = uint64(r % 2 * (r + 1)) // rows alternate traced/untraced
	t.TraceOrigin = int64(50 + r)
	return t
}

// eachBatch calls f with every batch of up to maxRows rows over the
// domain and the scalar tuples it was built from.
func eachBatch(f func(b *tuple.Batch, in []*tuple.Tuple)) {
	per := len(domainInts) * len(domainStrs)
	for n := 0; n <= maxRows; n++ {
		combos := 1
		for i := 0; i < n; i++ {
			combos *= per
		}
		for c := 0; c < combos; c++ {
			b := tuple.NewBatch(maxRows)
			in := make([]*tuple.Tuple, n)
			x := c
			for r := 0; r < n; r++ {
				in[r] = inputRow(r, x%per)
				x /= per
				b.Append(in[r])
			}
			f(b, in)
		}
	}
}

// eachSel calls f with every selection over n rows: each subset of the
// rows in ascending order and, for subsets of two or more, reversed.
func eachSel(n int, f func(sel []int32)) {
	for mask := 0; mask < 1<<n; mask++ {
		var sel []int32
		for r := 0; r < n; r++ {
			if mask&(1<<r) != 0 {
				sel = append(sel, int32(r))
			}
		}
		f(sel)
		if len(sel) > 1 {
			rev := slices.Clone(sel)
			slices.Reverse(rev)
			f(rev)
		}
	}
}

// recorder is an Emitter that keeps every sent tuple.
type recorder struct{ out []*tuple.Tuple }

func (e *recorder) Borrow() *tuple.Tuple { return &tuple.Tuple{} }
func (e *recorder) Send(t *tuple.Tuple)  { e.out = append(e.out, t) }

// bulkRecorder also implements RowForwarder, recording each bulk call.
type bulkRecorder struct {
	recorder
	calls []bulkCall
}

type bulkCall struct {
	b      *tuple.Batch
	sel    []int32
	stream tuple.StreamID
}

func (e *bulkRecorder) ForwardRows(b *tuple.Batch, sel []int32, stream tuple.StreamID) {
	e.calls = append(e.calls, bulkCall{b, sel, stream})
}

// describe renders a tuple's payload and metadata for comparison.
func describe(t *tuple.Tuple) string {
	s := fmt.Sprintf("stream=%d ts=%d event=%d trace=%d/%d [", t.Stream, t.Ts.UnixNano(), t.Event, t.TraceID, t.TraceOrigin)
	for c := 0; c < t.Len(); c++ {
		switch t.Kind(c) {
		case tuple.KindInt:
			s += fmt.Sprintf(" i%d", t.Int(c))
		case tuple.KindStr:
			s += fmt.Sprintf(" s%q", t.Str(c))
		case tuple.KindFloat:
			s += fmt.Sprintf(" f%g", t.Float(c))
		default:
			s += fmt.Sprintf(" ?%v", t.Kind(c))
		}
	}
	return s + " ]"
}

// forwarded is the scalar reference of forwarding row in on stream.
func forwarded(in *tuple.Tuple) string {
	out := in.Clone()
	out.Stream = outStream
	return describe(out)
}

// projected is the scalar reference of projecting cols of row in.
func projected(in *tuple.Tuple, cols []int) string {
	out := &tuple.Tuple{}
	for _, c := range cols {
		switch in.Kind(c) {
		case tuple.KindInt:
			out.AppendInt(in.Int(c))
		case tuple.KindStr:
			out.AppendStr(in.Str(c))
		case tuple.KindFloat:
			out.AppendFloat(in.Float(c))
		}
	}
	out.Stream = outStream
	out.Ts, out.Event, out.TraceID, out.TraceOrigin = in.Ts, in.Event, in.TraceID, in.TraceOrigin
	return describe(out)
}

func describeAll(ts []*tuple.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = describe(t)
	}
	return out
}

func TestSelectMatchesScalar(t *testing.T) {
	preds := map[string]func(in *tuple.Tuple) bool{
		"none":     func(*tuple.Tuple) bool { return false },
		"all":      func(*tuple.Tuple) bool { return true },
		"int>0":    func(in *tuple.Tuple) bool { return in.Int(0) > 0 },
		"int!=0":   func(in *tuple.Tuple) bool { return in.Int(0) != 0 },
		"strEmpty": func(in *tuple.Tuple) bool { return in.Str(1) == "" },
	}
	batches := 0
	eachBatch(func(b *tuple.Batch, in []*tuple.Tuple) {
		batches++
		for name, pred := range preds {
			for _, prefix := range [][]int32{nil, {99}} {
				want := slices.Clone(prefix)
				for r, row := range in {
					if pred(row) {
						want = append(want, int32(r))
					}
				}
				got := Select(b, slices.Clone(prefix), func(r int) bool { return pred(in[r]) })
				if !slices.Equal(got, want) {
					t.Fatalf("Select %s over %v (prefix %v) = %v, want %v", name, describeAll(in), prefix, got, want)
				}
			}
		}
		for _, prefix := range [][]int32{nil, {99}} {
			want := slices.Clone(prefix)
			for r, row := range in {
				if len(row.Str(1)) > 0 {
					want = append(want, int32(r))
				}
			}
			if got := SelectStrNonEmpty(b, 1, slices.Clone(prefix)); !slices.Equal(got, want) {
				t.Fatalf("SelectStrNonEmpty over %v (prefix %v) = %v, want %v", describeAll(in), prefix, got, want)
			}
		}
	})
	if want := 1 + 6 + 36 + 216 + 1296; batches != want {
		t.Fatalf("enumerated %d batches, want %d", batches, want)
	}
}

func TestForwardMatchesScalar(t *testing.T) {
	eachBatch(func(b *tuple.Batch, in []*tuple.Tuple) {
		for r := range in {
			e := &recorder{}
			ForwardRow(e, b, r, outStream)
			if len(e.out) != 1 || describe(e.out[0]) != forwarded(in[r]) {
				t.Fatalf("ForwardRow(%d) = %v, want %s", r, describeAll(e.out), forwarded(in[r]))
			}
		}
		eachSel(len(in), func(sel []int32) {
			e := &recorder{}
			ForwardSel(e, b, sel, outStream)
			want := make([]string, len(sel))
			for i, r := range sel {
				want[i] = forwarded(in[r])
			}
			if got := describeAll(e.out); !slices.Equal(got, want) {
				t.Fatalf("ForwardSel(%v) = %v, want %v", sel, got, want)
			}
			// With a bulk forwarder the selection is handed over as is.
			bulk := &bulkRecorder{}
			ForwardSel(bulk, b, sel, outStream)
			if len(bulk.out) != 0 || len(bulk.calls) != 1 || bulk.calls[0].b != b ||
				!slices.Equal(bulk.calls[0].sel, sel) || bulk.calls[0].stream != outStream {
				t.Fatalf("ForwardSel(%v) with a RowForwarder: %d tuples, calls %+v", sel, len(bulk.out), bulk.calls)
			}
		})
		e := &recorder{}
		ForwardAll(e, b, outStream)
		want := make([]string, len(in))
		for r := range in {
			want[r] = forwarded(in[r])
		}
		if got := describeAll(e.out); !slices.Equal(got, want) {
			t.Fatalf("ForwardAll = %v, want %v", got, want)
		}
		bulk := &bulkRecorder{}
		ForwardAll(bulk, b, outStream)
		if len(bulk.out) != 0 || len(bulk.calls) != 1 || bulk.calls[0].sel != nil || bulk.calls[0].stream != outStream {
			t.Fatalf("ForwardAll with a RowForwarder: %d tuples, calls %+v", len(bulk.out), bulk.calls)
		}
	})
}

func TestProjectMatchesScalar(t *testing.T) {
	colSets := [][]int{{}, {0}, {1}, {2}, {2, 0}, {1, 1}, {0, 1, 2}, {2, 1, 0}}
	eachBatch(func(b *tuple.Batch, in []*tuple.Tuple) {
		for _, cols := range colSets {
			for r := range in {
				e := &recorder{}
				ProjectRow(e, b, r, outStream, cols...)
				if len(e.out) != 1 || describe(e.out[0]) != projected(in[r], cols) {
					t.Fatalf("ProjectRow(%d, %v) = %v, want %s", r, cols, describeAll(e.out), projected(in[r], cols))
				}
			}
			eachSel(len(in), func(sel []int32) {
				e := &recorder{}
				ProjectSel(e, b, sel, outStream, cols...)
				want := make([]string, len(sel))
				for i, r := range sel {
					want[i] = projected(in[r], cols)
				}
				if got := describeAll(e.out); !slices.Equal(got, want) {
					t.Fatalf("ProjectSel(%v, %v) = %v, want %v", sel, cols, got, want)
				}
			})
		}
	})
}
