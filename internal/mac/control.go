package mac

// Control is a string of control bits attached to a message. The paper
// restricts algorithms to O(log n) control bits per message (Orchestra's
// teaching messages need O(n); see DESIGN.md §4). Bits are addressed MSB
// first within each byte so that a Control compares lexicographically as a
// bit string.
type Control []byte

// MakeControl allocates a zeroed control string able to hold nbits bits.
func MakeControl(nbits int) Control {
	if nbits <= 0 {
		return nil
	}
	return make(Control, (nbits+7)/8)
}

// Bits returns the capacity of the control string in bits.
func (c Control) Bits() int { return len(c) * 8 }

// SetBit sets bit i to v. The bit must be within capacity.
func (c Control) SetBit(i int, v bool) {
	byteIdx, mask := i/8, byte(1)<<(7-uint(i%8))
	if v {
		c[byteIdx] |= mask
	} else {
		c[byteIdx] &^= mask
	}
}

// Bit reports bit i. Bits beyond capacity read as zero, which lets
// receivers probe optional fields safely.
func (c Control) Bit(i int) bool {
	byteIdx := i / 8
	if byteIdx >= len(c) {
		return false
	}
	return c[byteIdx]&(byte(1)<<(7-uint(i%8))) != 0
}

// SetUint writes v into width bits starting at bit offset off, most
// significant bit first. v must fit in width bits.
func (c Control) SetUint(off, width int, v uint64) {
	for i := 0; i < width; i++ {
		c.SetBit(off+i, v&(1<<(uint(width-1-i))) != 0)
	}
}

// Uint reads width bits starting at offset off as an unsigned integer,
// most significant bit first.
func (c Control) Uint(off, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if c.Bit(off + i) {
			v |= 1
		}
	}
	return v
}
