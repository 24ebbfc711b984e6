package proto

import (
	"bytes"
	"strings"
	"testing"

	"tinydir/internal/bitvec"
	"tinydir/internal/snapshot"
)

// TestVecCodec round-trips sharer vectors through a snapshot and pins that
// a vector wider than bitvec.MaxBits fails the reader instead of panicking.
func TestVecCodec(t *testing.T) {
	v := bitvec.New(128)
	v.Set(0)
	v.Set(64)
	v.Set(127)
	w := snapshot.NewWriter(snapshot.FormatVersion, [32]byte{})
	w.Section(1)
	PutVec(w, v)
	PutVec(w, bitvec.Vec{})
	w.Int(bitvec.MaxBits + 1)
	var buf bytes.Buffer
	if err := w.Finish(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r.Section(1)
	if got := GetVec(r); got != v {
		t.Fatalf("round trip: got %v, want %v", got, v)
	}
	if got := GetVec(r); got.Len() != 0 {
		t.Fatalf("zero vector decoded with length %d", got.Len())
	}
	GetVec(r)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "exceeds 128 bits") {
		t.Fatalf("oversize vector: err = %v, want the 128-bit limit", err)
	}
}
