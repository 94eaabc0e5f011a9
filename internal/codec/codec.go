// Package codec is the one little-endian byte codec under every layout
// this repo produces at a process boundary: the device and cluster
// messages (internal/protocol), the map entity blobs (internal/wire),
// the journal and checkpoint files (internal/persist) and the hologram
// registry (internal/holo). It holds no layout itself — field order,
// magic numbers, tails and limits stay with the package that owns the
// message — only the primitives those layouts are spelled in.
//
// Writer appends; Reader is bounds-checked with a sticky error, so a
// decoder reads a whole structure and checks Err once, and a corrupt
// count or length can neither panic, read past the input, nor drive an
// allocation larger than the input that claims it.
package codec

import (
	"encoding/binary"
	"errors"
	"math"

	"slamshare/internal/geom"
)

// ErrShort is the Reader's sticky error: the input ended before the
// value did, or a count or length claims more than what remains.
var ErrShort = errors.New("codec: short input")

// Writer appends little-endian values to B.
type Writer struct{ B []byte }

func (w *Writer) U8(v byte)     { w.B = append(w.B, v) }
func (w *Writer) U16(v uint16)  { w.B = binary.LittleEndian.AppendUint16(w.B, v) }
func (w *Writer) U32(v uint32)  { w.B = binary.LittleEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64)  { w.B = binary.LittleEndian.AppendUint64(w.B, v) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes the canonical flag byte: 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Vec3 writes X, Y, Z.
func (w *Writer) Vec3(v geom.Vec3) {
	w.F64(v.X)
	w.F64(v.Y)
	w.F64(v.Z)
}

// Pose writes the rotation quaternion W, X, Y, Z then the translation:
// seven float64s.
func (w *Writer) Pose(p geom.SE3) {
	w.F64(p.R.W)
	w.F64(p.R.X)
	w.F64(p.R.Y)
	w.F64(p.R.Z)
	w.Vec3(p.T)
}

// Raw appends b as is.
func (w *Writer) Raw(b []byte) { w.B = append(w.B, b...) }

// Bytes writes a u32 length prefix and then b.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.B = append(w.B, b...)
}

// String is Bytes for a string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.B = append(w.B, s...)
}

// Reader consumes little-endian values from a byte slice. After the
// first failed read every further read returns zero and Err reports
// ErrShort.
type Reader struct {
	buf  []byte
	off  int
	fail bool
}

// NewReader returns a reader over data.
func NewReader(data []byte) Reader { return Reader{buf: data} }

// Err returns ErrShort once any read has failed, else nil.
func (r *Reader) Err() error {
	if r.fail {
		return ErrShort
	}
	return nil
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Offset returns the number of bytes consumed.
func (r *Reader) Offset() int { return r.off }

// Done reports that every read succeeded and nothing is left: the
// exact-length check of the strict decoders.
func (r *Reader) Done() bool { return !r.fail && r.off == len(r.buf) }

// Raw returns the next n bytes, aliasing the input.
func (r *Reader) Raw(n int) []byte {
	if r.fail || n < 0 || n > len(r.buf)-r.off {
		r.fail = true
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() byte {
	if r.fail || r.off >= len(r.buf) {
		r.fail = true
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *Reader) U16() uint16 {
	if r.fail || len(r.buf)-r.off < 2 {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *Reader) U32() uint32 {
	if r.fail || len(r.buf)-r.off < 4 {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if r.fail || len(r.buf)-r.off < 8 {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Vec3 reverses Writer.Vec3.
func (r *Reader) Vec3() geom.Vec3 {
	return geom.Vec3{X: r.F64(), Y: r.F64(), Z: r.F64()}
}

// Pose reverses Writer.Pose.
func (r *Reader) Pose() geom.SE3 {
	var p geom.SE3
	p.R.W = r.F64()
	p.R.X = r.F64()
	p.R.Y = r.F64()
	p.R.Z = r.F64()
	p.T = r.Vec3()
	return p
}

// Bytes reads a u32 length prefix and returns that many bytes, aliasing
// the input. A length beyond max or beyond the remaining input fails.
func (r *Reader) Bytes(max int) []byte {
	n := int(r.U32())
	if n > max {
		r.fail = true
	}
	return r.Raw(n)
}

// Count reads a u32 element count and admits it only if minBytes per
// element are still present, so the count can size an allocation.
func (r *Reader) Count(minBytes int) int {
	n := int(r.U32())
	if r.fail || n < 0 || n > (len(r.buf)-r.off)/minBytes {
		r.fail = true
		return 0
	}
	return n
}
