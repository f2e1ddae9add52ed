// Package codec implements the canonical binary encoding used for both
// hashing and the wire format. It must be deterministic: two nodes
// encoding the same block must produce identical bytes, or signature
// and digest checks would diverge. The format is:
//
//   - fixed-width big-endian integers for scalars,
//   - minimal uvarints for sequence lengths and consensus slot numbers,
//   - IEEE-754 bits for floats (coordinates),
//   - uvarint-length-prefixed byte strings,
//   - int64 UnixNano for timestamps.
//
// encoding/gob and encoding/json are unsuitable: gob embeds type
// metadata and is not canonical across streams, and JSON float
// formatting is not round-trip stable enough for digests.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Limits protect decoders from hostile length prefixes.
const (
	// MaxBytesLen is the largest length-prefixed byte string accepted.
	MaxBytesLen = 16 << 20 // 16 MiB
	// MaxSliceLen is the largest element count accepted for sequences.
	MaxSliceLen = 1 << 20
)

// Errors returned by the decoder.
var (
	ErrShortBuffer    = errors.New("codec: short buffer")
	ErrOversize       = errors.New("codec: length prefix exceeds limit")
	ErrTrailing       = errors.New("codec: trailing bytes after decode")
	ErrNonMinimal     = errors.New("codec: non-minimal varint encoding")
	ErrVarintOverflow = errors.New("codec: varint overflows 64 bits")
	ErrBadBool        = errors.New("codec: boolean byte is neither 0 nor 1")
)

// Writer accumulates a canonical encoding. The zero value is ready to
// use. Writer never fails; the buffer grows as needed.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset truncates the writer for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Uint8 appends a single byte.
func (w *Writer) Uint8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends 0x01 or 0x00.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Uint16 appends a big-endian uint16.
func (w *Writer) Uint16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// Uint32 appends a big-endian uint32.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a big-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Int64 appends a big-endian two's-complement int64.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Float64 appends the IEEE-754 bit pattern of v.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Bytes appends a uvarint length prefix followed by b.
func (w *Writer) WriteBytes(b []byte) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends s as a length-prefixed byte string.
func (w *Writer) String(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends b with no length prefix (for fixed-size fields such as
// hashes and addresses).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Time appends t as int64 UnixNano; the zero time encodes as the most
// negative value so it is distinguishable.
func (w *Writer) Time(t time.Time) {
	if t.IsZero() {
		w.Int64(math.MinInt64)
		return
	}
	w.Int64(t.UnixNano())
}

// Count appends a sequence length as uvarint.
func (w *Writer) Count(n int) { w.Uvarint(uint64(n)) }

// Uvarint appends v in its minimal base-128 form: the width of small
// numbers that are sent often (an era, a view, a sequence number).
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Reader decodes a canonical encoding. Methods record the first error
// and subsequently return zero values, so call Err once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Finish verifies the buffer was fully consumed.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail(ErrShortBuffer)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean byte. Only 0 and 1 are accepted: any other value
// would decode as true and re-encode as 1, two encodings of one value.
func (r *Reader) Bool() bool {
	b := r.Uint8()
	if b > 1 {
		r.fail(ErrBadBool)
		return false
	}
	return b == 1
}

// Uint16 reads a big-endian uint16.
func (r *Reader) Uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads a big-endian int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float64 reads an IEEE-754 float64.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Uvarint reads a number written by Writer.Uvarint. Only the minimal
// form is accepted; a padded or overflowing one fails the reader.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n == 0 {
		r.fail(ErrShortBuffer)
		return 0
	}
	if n < 0 {
		r.fail(ErrVarintOverflow)
		return 0
	}
	// Reject padded encodings (a trailing zero continuation byte): every
	// value must have exactly one accepted byte form, or two replicas
	// could read identical structures from different wire bytes and
	// disagree on digests over re-encodings.
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail(ErrNonMinimal)
		return 0
	}
	r.off += n
	return v
}

// ReadBytes reads a length-prefixed byte string, returning a copy.
func (r *Reader) ReadBytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		r.fail(ErrOversize)
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// ReadString reads a length-prefixed string.
func (r *Reader) ReadString() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > MaxBytesLen {
		r.fail(ErrOversize)
		return ""
	}
	b := r.take(int(n))
	return string(b)
}

// Raw reads exactly n bytes without a length prefix.
func (r *Reader) ReadRaw(n int) []byte {
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// RawInto fills dst from the stream (for fixed-size arrays).
func (r *Reader) RawInto(dst []byte) {
	b := r.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

// Time reads a timestamp written by Writer.Time.
func (r *Reader) Time() time.Time {
	v := r.Int64()
	if r.err != nil || v == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, v).UTC()
}

// Count reads a sequence length, bounded by MaxSliceLen and by the bytes
// left to read: every element of every sequence takes at least one, so
// a larger count cannot be honest, and is refused before the caller
// allocates for it (a seven-byte view change could ask for 96 MB).
func (r *Reader) Count() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > MaxSliceLen {
		r.fail(ErrOversize)
		return 0
	}
	if n > uint64(r.Remaining()) {
		r.fail(ErrShortBuffer)
		return 0
	}
	return int(n)
}

// Marshaler is implemented by types with a canonical encoding.
type Marshaler interface {
	MarshalCanonical(w *Writer)
}

// Encode returns the canonical encoding of m.
func Encode(m Marshaler) []byte {
	w := NewWriter(128)
	m.MarshalCanonical(w)
	return w.Bytes()
}
