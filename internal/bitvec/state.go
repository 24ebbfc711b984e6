package bitvec

// Words returns the vector's (Len()+63)/64 words for serialization, as a
// fresh slice.
func (v Vec) Words() []uint64 {
	w := v.words
	return w[:(v.n+63)/64]
}

// FromWords builds an n-bit vector from saved words. Shorter or longer
// slices are tolerated: missing words read as zero, excess words are
// dropped, and bits at or above n are cleared.
func FromWords(n int, words []uint64) Vec {
	v := New(n)
	copy(v.words[:(n+63)/64], words)
	if r := n % 64; r != 0 {
		v.words[n/64] &= 1<<uint(r) - 1
	}
	return v
}
