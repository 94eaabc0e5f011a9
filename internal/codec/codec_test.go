package codec

import (
	"bytes"
	"testing"

	"slamshare/internal/geom"
)

func TestRoundTrip(t *testing.T) {
	pose := geom.SE3{R: geom.Quat{W: 0.5, X: -0.5, Y: 0.5, Z: 0.5}, T: geom.Vec3{X: 1, Y: -2, Z: 3}}
	var w Writer
	w.U8(7)
	w.U16(0xBEEF)
	w.Bool(true)
	w.U32(0xDEADBEEF)
	w.U64(1 << 40)
	w.F64(-0.125)
	w.Vec3(pose.T)
	w.Pose(pose)
	w.Bytes([]byte("blob"))
	w.String("text")
	w.Raw([]byte{1, 2})
	w.U32(2) // a count of two u64 elements
	w.U64(11)
	w.U64(12)

	r := NewReader(w.B)
	if r.U8() != 7 || r.U16() != 0xBEEF || r.U8() != 1 || r.U32() != 0xDEADBEEF || r.U64() != 1<<40 ||
		r.F64() != -0.125 || r.Vec3() != pose.T || r.Pose() != pose ||
		string(r.Bytes(16)) != "blob" || string(r.Bytes(16)) != "text" || !bytes.Equal(r.Raw(2), []byte{1, 2}) {
		t.Fatal("round trip mismatch")
	}
	if n := r.Count(8); n != 2 || r.U64() != 11 || r.U64() != 12 {
		t.Fatalf("count round trip: n = %d", n)
	}
	if !r.Done() || r.Err() != nil || r.Len() != 0 || r.Offset() != len(w.B) {
		t.Fatalf("reader not done: len %d off %d err %v", r.Len(), r.Offset(), r.Err())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if r.U32() != 0 || r.Err() != ErrShort {
		t.Fatal("short u32 must fail")
	}
	// The three bytes are still there, but the reader stays failed.
	if r.U8() != 0 || r.Raw(1) != nil || r.Done() || r.Offset() != 0 {
		t.Fatal("reads after a failure must return zero and not advance")
	}

	// Bytes: a length beyond max fails even when the bytes are present.
	var w Writer
	w.Bytes(make([]byte, 9))
	r = NewReader(w.B)
	if r.Bytes(8) != nil || r.Err() == nil {
		t.Fatal("Bytes must enforce max")
	}
	// Count: two 8-byte elements claimed, 15 bytes present.
	w = Writer{}
	w.U32(2)
	w.Raw(make([]byte, 15))
	r = NewReader(w.B)
	if r.Count(8) != 0 || r.Err() == nil {
		t.Fatal("Count must reject a count the input cannot back")
	}
}

// FuzzReader drives the primitives with an arbitrary op script over
// arbitrary data. The reader must never panic, never consume past the
// input, never hand out bytes it does not have, never admit a count
// the remaining input cannot back, and stay failed once it failed.
func FuzzReader(f *testing.F) {
	var w Writer
	w.U32(3)
	w.Raw(make([]byte, 40))
	f.Add([]byte{6, 3, 4, 0, 1, 2, 5}, w.B)
	f.Add([]byte{5, 5, 5}, []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3})
	f.Add([]byte{6, 6}, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, script, data []byte) {
		r := NewReader(data)
		failed := false
		for i, op := range script {
			before := r.Len()
			switch op % 8 {
			case 0:
				r.U8()
			case 1:
				r.U32()
			case 2:
				r.U64()
			case 3:
				r.Pose()
			case 4:
				n := int(op) / 8
				if b := r.Raw(n); b != nil && len(b) != n {
					t.Fatalf("Raw(%d) returned %d bytes", n, len(b))
				}
			case 5:
				max := int(op)
				if b := r.Bytes(max); len(b) > max || len(b) > before {
					t.Fatalf("Bytes(%d) returned %d bytes of %d remaining", max, len(b), before)
				}
			case 6:
				min := int(op)/8 + 1
				if n := r.Count(min); n < 0 || n*min > r.Len() {
					t.Fatalf("Count(%d) admitted %d with %d bytes left", min, n, r.Len())
				}
			case 7:
				r.U32()
				r.U16()
				r.Vec3()
			}
			if r.Len() < 0 || r.Len() > before || r.Offset()+r.Len() != len(data) {
				t.Fatalf("op %d: offset %d + len %d != %d (was %d left)", i, r.Offset(), r.Len(), len(data), before)
			}
			if failed && (r.Err() == nil || r.Len() != before) {
				t.Fatalf("op %d: reader recovered or advanced after a failure", i)
			}
			failed = r.Err() != nil
		}
		if r.Done() != (!failed && r.Len() == 0) {
			t.Fatal("Done disagrees with Err and Len")
		}
	})
}
