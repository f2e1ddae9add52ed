package codec

import (
	"fmt"
	"time"
)

// Coder runs a type's one description of its format in either
// direction: writing the fields it is handed to a Writer, or reading
// them from a Reader into the same fields. A read failure sticks as in
// Reader: the description runs on over zero values and the caller sees
// the first error. A Coder is a small value: pass it, do not keep it.
type Coder struct {
	w *Writer // set when writing
	r *Reader // set when reading
}

// Described is implemented by a type whose format is one description,
// its Canonical method, run in both directions.
type Described interface {
	Canonical(c Coder)
}

// Coder returns the coder that writes to w.
func (w *Writer) Coder() Coder { return Coder{w: w} }

// Coder returns the coder that reads from r.
func (r *Reader) Coder() Coder { return Coder{r: r} }

// Marshal returns the canonical encoding of v.
func Marshal(v Described) []byte {
	w := NewWriter(128)
	v.Canonical(w.Coder())
	return w.Bytes()
}

// Unmarshal decodes b as one whole T: every byte read, none left over.
func Unmarshal[T any, P interface {
	*T
	Described
}](b []byte) (*T, error) {
	v := P(new(T))
	r := NewReader(b)
	v.Canonical(r.Coder())
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return (*T)(v), nil
}

// Read decodes v from r, leaving what follows unread.
func Read(r *Reader, v Described) error {
	v.Canonical(r.Coder())
	return r.err
}

// Unmarshaler is implemented by a type that decodes itself from a
// Reader; every Described payload does so through Read.
type Unmarshaler interface {
	UnmarshalCanonical(r *Reader) error
}

// DecodeInto decodes b whole into v, as Unmarshal does.
func DecodeInto(b []byte, v Unmarshaler) error {
	r := NewReader(b)
	if err := v.UnmarshalCanonical(r); err != nil {
		return err
	}
	return r.Finish()
}

// Decoding reports whether c reads. A description keeps what only a
// decode does (a digest of the bytes read, a refusal of a value the
// writer never produces) behind it.
func (c Coder) Decoding() bool { return c.r != nil }

// Err returns the first read error, if any.
func (c Coder) Err() error {
	if c.r == nil {
		return nil
	}
	return c.r.err
}

// Fail refuses the value being read with err, unless an error came
// first. A writer has nothing to refuse.
func (c Coder) Fail(err error) {
	if c.r != nil {
		c.r.fail(err)
	}
}

// Offset returns the number of bytes written or read so far.
func (c Coder) Offset() int {
	if c.r != nil {
		return c.r.off
	}
	return len(c.w.buf)
}

// Since returns the bytes a decode has read from offset off up to now.
// The slice aliases the buffer: hash it or copy it, do not keep it.
func (c Coder) Since(off int) []byte { return c.r.buf[off:c.r.off] }

// Bool codes a boolean byte.
func (c Coder) Bool(v *bool) {
	if c.r != nil {
		*v = c.r.Bool()
		return
	}
	c.w.Bool(*v)
}

// Uint64 codes a big-endian uint64.
func (c Coder) Uint64(v *uint64) {
	if c.r != nil {
		*v = c.r.Uint64()
		return
	}
	c.w.Uint64(*v)
}

// Uvarint codes a minimal uvarint.
func (c Coder) Uvarint(v *uint64) {
	if c.r != nil {
		*v = c.r.Uvarint()
		return
	}
	c.w.Uvarint(*v)
}

// Float64 codes the IEEE-754 bits of a float.
func (c Coder) Float64(v *float64) {
	if c.r != nil {
		*v = c.r.Float64()
		return
	}
	c.w.Float64(*v)
}

// Time codes a timestamp as Writer.Time does.
func (c Coder) Time(v *time.Time) {
	if c.r != nil {
		*v = c.r.Time()
		return
	}
	c.w.Time(*v)
}

// Bytes codes a length-prefixed byte string; a read returns a copy.
func (c Coder) Bytes(v *[]byte) {
	if c.r != nil {
		*v = c.r.ReadBytes()
		return
	}
	c.w.WriteBytes(*v)
}

// String codes a length-prefixed string.
func (c Coder) String(v *string) {
	if c.r != nil {
		*v = c.r.ReadString()
		return
	}
	c.w.String(*v)
}

// ByteString codes one length-prefixed byte string of a list.
func ByteString(b *[]byte, c Coder) { c.Bytes(b) }

// Raw codes b with no length prefix: a fixed-size field such as a hash
// or an address, read in place.
func (c Coder) Raw(b []byte) {
	if c.r != nil {
		c.r.RawInto(b)
		return
	}
	c.w.Raw(b)
}

// Fixed codes a byte string whose length both sides know: written as it
// is, read as n bytes into a new slice.
func (c Coder) Fixed(v *[]byte, n int) {
	if c.r != nil {
		*v = c.r.ReadRaw(n)
		return
	}
	c.w.Raw(*v)
}

// Tag codes a format's version string. A read of any other string fails
// with bad, wrapped with what was read.
func (c Coder) Tag(tag string, bad error) {
	if c.r == nil {
		c.w.String(tag)
		return
	}
	r := c.r
	n := r.Uvarint()
	if r.err != nil {
		return
	}
	if n > MaxBytesLen {
		r.fail(ErrOversize)
		return
	}
	if got := r.take(int(n)); r.err == nil && string(got) != tag {
		r.fail(fmt.Errorf("%w %q", bad, got))
	}
}

// Uint8 codes one byte of any byte-sized type: a kind, a flag set.
func Uint8[T ~uint8](c Coder, v *T) {
	if c.r != nil {
		*v = T(c.r.Uint8())
		return
	}
	c.w.Uint8(uint8(*v))
}

// Int64 codes a big-endian two's-complement integer of any signed
// type: a duration, an index.
func Int64[T ~int64 | ~int](c Coder, v *T) {
	if c.r != nil {
		*v = T(c.r.Int64())
		return
	}
	c.w.Int64(int64(*v))
}

// List codes a count and then each element of *s. A read refuses a
// count of elements, each at least minSize bytes long, that the bytes
// left cannot hold (see Reader.CountOf) before it allocates the slice.
func List[T any](c Coder, s *[]T, minSize int, each func(*T, Coder)) {
	CheckedList(c, s, minSize, nil, each)
}

// CheckedList is List with one more refusal: a read hands check the
// count, and fails with its error, before anything is allocated.
func CheckedList[T any](c Coder, s *[]T, minSize int, check func(n int) error, each func(*T, Coder)) {
	if c.r == nil {
		c.w.Count(len(*s))
		for i := range *s {
			each(&(*s)[i], c)
		}
		return
	}
	n := c.r.CountOf(minSize)
	if c.r.err != nil {
		return
	}
	if check != nil {
		if err := check(n); err != nil {
			c.r.fail(err)
			return
		}
	}
	*s = make([]T, n)
	for i := range *s {
		if each(&(*s)[i], c); c.r.err != nil {
			return
		}
	}
}

// Optional codes a presence flag and then, if *p is present, the value.
// A read allocates the value it finds.
func Optional[T any](c Coder, p **T, code func(*T, Coder)) {
	present := *p != nil
	c.Bool(&present)
	if !present {
		return
	}
	if c.r != nil {
		*p = new(T)
	}
	code(*p, c)
}
