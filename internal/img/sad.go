package img

import "encoding/binary"

// Load8 returns the eight pixels p[o:o+8] as one word, the operand
// SAD8 takes. Which end the first pixel lands on does not matter to a
// sum over all eight.
func Load8(p []byte, o int) uint64 {
	return binary.LittleEndian.Uint64(p[o : o+8 : o+8])
}

// SAD8 returns the sum of the absolute differences of the eight bytes
// of a and b, four bytes at a time: the even bytes, then the odd ones,
// each in a 16-bit lane with room for a biased subtraction. It is the
// one block-matching kernel: the video encoder's motion search and the
// tracker's stereo search both sum it over the rows of an 8×8 block.
func SAD8(a, b uint64) int {
	const (
		lo   = 0x00ff00ff00ff00ff
		ones = 0x0001000100010001
	)
	// 0x100 + a - b in every lane; the bias keeps a lane from borrowing
	// from its neighbour and leaves bit 8 clear exactly where a < b.
	e := a&lo + ones<<8 - b&lo
	o := a>>8&lo + ones<<8 - b>>8&lo
	ne := ^e >> 8 & ones
	no := ^o >> 8 & ones
	// In those lanes 0x1ff - d + 1 = 0x100 + b - a, so every lane of x
	// is 0x200 plus two absolute differences (<= 0x3fe), and one
	// multiply adds the four lanes into the top one.
	x := (e ^ ne*0x1ff) + (o ^ no*0x1ff) + ne + no
	return int(x*ones>>48) - 8*0x100
}
