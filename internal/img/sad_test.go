package img

import (
	"math/rand"
	"testing"
)

func TestSad8(t *testing.T) {
	scalar := func(a, b uint64) int {
		sum := 0
		for i := 0; i < 8; i++ {
			d := int(byte(a>>(8*i))) - int(byte(b>>(8*i)))
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return sum
	}
	extremes := []uint64{0, ^uint64(0), 0xff00ff00ff00ff00, 0x00ff00ff00ff00ff,
		0x0101010101010101, 0xfefefefefefefefe, 0x8080808080808080, 0x7f7f7f7f7f7f7f7f}
	for _, a := range extremes {
		for _, b := range extremes {
			if got, want := SAD8(a, b), scalar(a, b); got != want {
				t.Errorf("SAD8(%#016x, %#016x) = %d, want %d", a, b, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if i%4 == 0 {
			b = a ^ 1<<uint(rng.Intn(64)) // near-equal rows: differences of one bit
		}
		if got, want := SAD8(a, b), scalar(a, b); got != want {
			t.Fatalf("SAD8(%#016x, %#016x) = %d, want %d", a, b, got, want)
		}
	}
}
