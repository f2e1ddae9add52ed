package codec

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestScalarRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.Uint8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.Uint16(0xBEEF)
	w.Uint32(0xDEADBEEF)
	w.Uint64(math.MaxUint64)
	w.Int64(-42)
	w.Float64(114.1795)

	r := NewReader(w.Bytes())
	if got := r.Uint8(); got != 0xAB {
		t.Errorf("Uint8=%x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools mangled")
	}
	if got := r.Uint16(); got != 0xBEEF {
		t.Errorf("Uint16=%x", got)
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32=%x", got)
	}
	if got := r.Uint64(); got != math.MaxUint64 {
		t.Errorf("Uint64=%x", got)
	}
	if got := r.Int64(); got != -42 {
		t.Errorf("Int64=%d", got)
	}
	if got := r.Float64(); got != 114.1795 {
		t.Errorf("Float64=%v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestBytesStringRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.WriteBytes([]byte{1, 2, 3})
	w.WriteBytes(nil)
	w.String("era-switch")
	w.String("")

	r := NewReader(w.Bytes())
	if !bytes.Equal(r.ReadBytes(), []byte{1, 2, 3}) {
		t.Error("bytes mangled")
	}
	if len(r.ReadBytes()) != 0 {
		t.Error("nil bytes should decode empty")
	}
	if r.ReadString() != "era-switch" {
		t.Error("string mangled")
	}
	if r.ReadString() != "" {
		t.Error("empty string mangled")
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestTimeRoundTrip(t *testing.T) {
	ts := time.Date(2019, 8, 5, 18, 0, 0, 123, time.UTC)
	w := NewWriter(0)
	w.Time(ts)
	w.Time(time.Time{})
	r := NewReader(w.Bytes())
	if got := r.Time(); !got.Equal(ts) {
		t.Errorf("time %v != %v", got, ts)
	}
	if got := r.Time(); !got.IsZero() {
		t.Errorf("zero time decoded as %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestRawRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.Raw([]byte{9, 8, 7, 6})
	r := NewReader(w.Bytes())
	if !bytes.Equal(r.ReadRaw(4), []byte{9, 8, 7, 6}) {
		t.Error("raw mangled")
	}
	var dst [2]byte
	w2 := NewWriter(0)
	w2.Raw([]byte{5, 4})
	r2 := NewReader(w2.Bytes())
	r2.RawInto(dst[:])
	if dst != [2]byte{5, 4} {
		t.Error("RawInto mangled")
	}
}

func TestShortBuffer(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.Uint64()
	if r.Err() != ErrShortBuffer {
		t.Fatalf("want ErrShortBuffer, got %v", r.Err())
	}
	// Subsequent reads stay failed and return zero values.
	if r.Uint8() != 0 || r.Err() != ErrShortBuffer {
		t.Fatal("reader must stay in error state")
	}
}

func TestOversizePrefixRejected(t *testing.T) {
	w := NewWriter(0)
	w.Count(MaxSliceLen + 1)
	r := NewReader(w.Bytes())
	if r.CountOf(1) != 0 || r.Err() != ErrOversize {
		t.Fatalf("want ErrOversize, got %v", r.Err())
	}

	w2 := NewWriter(0)
	w2.buf = appendUvarintForTest(w2.buf, MaxBytesLen+1)
	r2 := NewReader(w2.Bytes())
	if r2.ReadBytes() != nil || r2.Err() != ErrOversize {
		t.Fatalf("want ErrOversize, got %v", r2.Err())
	}
}

func TestBoolIsCanonical(t *testing.T) {
	for b, want := range map[byte]error{0: nil, 1: nil, 2: ErrBadBool, '0': ErrBadBool, 0xFF: ErrBadBool} {
		r := NewReader([]byte{b})
		if got := r.Bool(); got != (b == 1) || r.Err() != want {
			t.Fatalf("Bool(%#x) = %v, err %v; want %v, err %v", b, got, r.Err(), b == 1, want)
		}
	}
}

func TestTrailingBytes(t *testing.T) {
	w := NewWriter(0)
	w.Uint32(7)
	w.Uint8(1)
	r := NewReader(w.Bytes())
	_ = r.Uint32()
	if err := r.Finish(); err == nil {
		t.Fatal("Finish must fail with trailing bytes")
	}
}

func TestCountRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, MaxSliceLen} {
		w := NewWriter(0)
		w.Count(n)
		w.Raw(make([]byte, n)) // the least n elements can take
		r := NewReader(w.Bytes())
		if got := r.CountOf(1); got != n {
			t.Errorf("Count(%d) round-tripped to %d", n, got)
		}
		// One byte fewer than one per element: nobody allocates for it.
		if n > 0 {
			r = NewReader(w.Bytes()[:w.Len()-1])
			if got := r.CountOf(1); got != 0 || r.Err() != ErrShortBuffer {
				t.Errorf("Count(%d) over %d bytes = %d, err %v", n, n-1, got, r.Err())
			}
		}
	}
}

// Every uint64 has exactly one accepted uvarint form: the minimal one.
func TestUvarintMinimalForm(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 32, math.MaxUint64} {
		w := NewWriter(0)
		w.Uvarint(v)
		r := NewReader(w.Bytes())
		if got := r.Uvarint(); got != v || r.Finish() != nil {
			t.Errorf("Uvarint(%d) round-tripped to %d (%v)", v, got, r.Finish())
		}
	}
	w := NewWriter(0)
	w.Uvarint(1000)
	if w.Len() != 2 {
		t.Errorf("1000 took %d bytes, want 2", w.Len())
	}
	overflow := append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	for _, c := range []struct {
		name string
		in   []byte
		want error
	}{
		{"padded zero", []byte{0x80, 0x00}, ErrNonMinimal},
		{"padded one", []byte{0x81, 0x00}, ErrNonMinimal},
		{"padded twice", []byte{0x81, 0x80, 0x00}, ErrNonMinimal},
		{"65 bits", overflow, ErrVarintOverflow},
		{"eleven bytes", append(bytes.Repeat([]byte{0x80}, 10), 0x01), ErrVarintOverflow},
		{"truncated", []byte{0x80}, ErrShortBuffer},
		{"empty", nil, ErrShortBuffer},
	} {
		r := NewReader(c.in)
		if got := r.Uvarint(); got != 0 || r.Err() != c.want {
			t.Errorf("%s: Uvarint = %d, err %v; want 0, %v", c.name, got, r.Err(), c.want)
		}
	}
}

// Property: arbitrary scalar tuples round-trip exactly.
func TestCodecProperty(t *testing.T) {
	f := func(a uint64, b int64, c float64, s string, raw []byte, ok bool) bool {
		if math.IsNaN(c) {
			c = 0 // NaN != NaN; bit pattern round-trips but comparison fails
		}
		w := NewWriter(0)
		w.Uint64(a)
		w.Int64(b)
		w.Float64(c)
		w.String(s)
		w.WriteBytes(raw)
		w.Bool(ok)

		r := NewReader(w.Bytes())
		if r.Uint64() != a || r.Int64() != b || r.Float64() != c {
			return false
		}
		if r.ReadString() != s {
			return false
		}
		if !bytes.Equal(r.ReadBytes(), raw) {
			return false
		}
		if r.Bool() != ok {
			return false
		}
		return r.Finish() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: encoding the same values twice produces identical bytes.
func TestCodecDeterministic(t *testing.T) {
	enc := func() []byte {
		w := NewWriter(0)
		w.Float64(114.1795)
		w.String("endorser")
		w.Time(time.Unix(1565025600, 0))
		return w.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.Uint64(1)
	if w.Len() != 8 {
		t.Fatalf("Len=%d", w.Len())
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("Reset must empty the writer")
	}
}

// appendUvarintForTest mirrors binary.AppendUvarint without importing
// encoding/binary in the test.
func appendUvarintForTest(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}
