package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"briskstream/internal/tuple"
)

// Encoder builds a snapshot payload. Fixed-width integers are big-endian
// (matching the tuple wire format); lengths are uvarints. The encoding
// is deterministic: the same sequence of calls with the same values
// produces the same bytes, always.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// NewEncoderSize returns an empty encoder with room for n bytes, so a
// payload of up to that size is encoded without growing (and copying)
// the buffer on the way. The engine sizes each task's snapshot encoder
// by that task's previous snapshot.
func NewEncoderSize(n int) *Encoder { return &Encoder{buf: make([]byte, 0, n)} }

// Bytes returns the encoded payload. The slice aliases the encoder's
// buffer; callers that keep it past Reset must copy.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder, keeping its buffer capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Int64 appends a fixed 8-byte big-endian integer.
func (e *Encoder) Int64(v int64) { e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(v)) }

// Uint64 appends a fixed 8-byte big-endian unsigned integer.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// Float64 appends the IEEE-754 bits of v.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Len appends a collection length as a uvarint.
func (e *Encoder) Len(n int) { e.buf = binary.AppendUvarint(e.buf, uint64(n)) }

// String appends a uvarint length followed by the string bytes.
func (e *Encoder) String(s string) {
	e.Len(len(s))
	e.buf = append(e.buf, s...)
}

// Bytes64 appends a uvarint length followed by raw bytes.
func (e *Encoder) Bytes64(b []byte) {
	e.Len(len(b))
	e.buf = append(e.buf, b...)
}

// Raw appends bytes verbatim, with no length prefix: splicing an
// encoding produced by another Encoder into this one (state resharding
// recomposes snapshot payloads this way).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Tags for Key encodings. They mirror the slot kinds tuple fields may
// hold; vNone covers the empty key of global (unkeyed) windows. Symbol
// keys encode as their interned name (vSym + string) — symbol ids are
// process-local and must never be persisted — and are re-interned on
// decode, so a restored key equals the key a replayed tuple produces
// while the encoding stays byte-stable across processes.
const (
	vNone byte = iota
	vInt
	vFloat
	vString
	vBool
	vSym
)

// Key appends one typed grouping key.
func (e *Encoder) Key(k tuple.Key) {
	switch k.Kind() {
	case tuple.KindNone:
		e.buf = append(e.buf, vNone)
	case tuple.KindInt:
		e.buf = append(e.buf, vInt)
		e.Int64(k.Int())
	case tuple.KindFloat:
		e.buf = append(e.buf, vFloat)
		e.Float64(k.Float())
	case tuple.KindStr:
		e.buf = append(e.buf, vString)
		e.String(k.Str())
	case tuple.KindBool:
		e.buf = append(e.buf, vBool)
		e.Bool(k.Bool())
	case tuple.KindSym:
		e.buf = append(e.buf, vSym)
		e.String(k.Str())
	default:
		panic(fmt.Sprintf("checkpoint: cannot encode key of kind %v", k.Kind()))
	}
}

// ErrCorrupt reports a malformed snapshot payload.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// Decoder reads a snapshot payload produced by Encoder. Errors are
// sticky: after the first failure every read returns the zero value and
// Err reports the failure, so decode sequences need a single check.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps an encoded payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

// Int64 reads a fixed 8-byte big-endian integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Uint64 reads a fixed 8-byte big-endian unsigned integer.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Float64 reads an IEEE-754 value.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bool reads one byte as a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return false
	}
	b := d.buf[d.off]
	d.off++
	return b == 1
}

// Len reads a uvarint collection length, bounded by the remaining
// payload so corrupt lengths cannot drive huge allocations.
func (d *Decoder) Len() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || v > uint64(len(d.buf)) {
		d.fail()
		return 0
	}
	d.off += n
	return int(v)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Len()
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Bytes64 reads a length-prefixed byte slice (copied out of the payload).
func (d *Decoder) Bytes64() []byte {
	n := d.Len()
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:])
	d.off += n
	return b
}

// Key reads one typed grouping key (symbol keys are re-interned).
func (d *Decoder) Key() tuple.Key {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return tuple.Key{}
	}
	tag := d.buf[d.off]
	d.off++
	switch tag {
	case vNone:
		return tuple.Key{}
	case vInt:
		return tuple.IntKey(d.Int64())
	case vFloat:
		return tuple.FloatKey(d.Float64())
	case vString:
		return tuple.StrKey(d.String())
	case vBool:
		return tuple.BoolKey(d.Bool())
	case vSym:
		return tuple.SymKey(tuple.InternSym(d.String()))
	default:
		d.fail()
		return tuple.Key{}
	}
}
