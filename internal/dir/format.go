package dir

// Sharer-set encoding formats. The paper fixes each entry to a full-map
// bitvector and notes (§I-A) that "any standard technique for limiting
// the width of the directory entry can be seamlessly applied on top of
// our proposal to further reduce the area of the sparse directory". This
// file provides those standard techniques as a composable layer:
//
//   - FullMap: one bit per core (the paper's default; lossless).
//   - LimitedPtr{K}: up to K exact owner pointers; overflowing the
//     pointer budget falls back to tracking a conservative superset via
//     a coarse region-of-cores mask (Dir_K_CV semantics, Agarwal et al.).
//   - Coarse{G}: one bit per group of G cores (Gupta et al.'s coarse
//     vector): precise enough to find some sharer, conservative for
//     invalidations.
//
// A format encodes a sharer set into an entry-width-bounded form and
// decodes it back to a (possibly conservative) superset. Invalidating a
// superset is always safe in a write-invalidate protocol; the cost shows
// up as extra invalidation traffic, which the harness measures in the
// entry-format ablation (cmd/experiments -fig format).

import (
	"fmt"

	"tinydir/internal/bitvec"
)

// Format encodes and decodes sharer sets under an entry-width budget.
type Format interface {
	// Name identifies the format in metrics and ablation tables.
	Name() string
	// Encode stores the sharer set; Decode returns the tracked superset.
	// Encode is lossy only in the conservative direction:
	// Decode(Encode(s)) is always a superset of s.
	Encode(s bitvec.Vec) EncodedSharers
	Decode(e EncodedSharers, cores int) bitvec.Vec
}

// EncodedSharers is the stored representation of a sharer set.
type EncodedSharers struct {
	// ptrs holds exact core ids when the pointer format is in use.
	ptrs []int
	// mask holds the coarse/full bit mask otherwise.
	mask bitvec.Vec
	// coarse is the group size of the mask (1 = full map).
	coarse int
	// overflowed marks a limited-pointer entry that fell back to coarse.
	overflowed bool
}

// FullMap is the lossless one-bit-per-core format.
type FullMap struct{}

// Name implements Format.
func (FullMap) Name() string { return "fullmap" }

// Encode implements Format.
func (FullMap) Encode(s bitvec.Vec) EncodedSharers {
	return EncodedSharers{mask: s, coarse: 1}
}

// Decode implements Format.
func (FullMap) Decode(e EncodedSharers, cores int) bitvec.Vec {
	if e.mask.Len() == 0 {
		return bitvec.New(cores)
	}
	return e.mask
}

// LimitedPtr is the Dir_K pointer format with coarse-vector overflow.
type LimitedPtr struct {
	// K is the pointer budget per entry.
	K int
	// OverflowGroup is the coarse group size used after overflow
	// (defaults to 4 cores per bit).
	OverflowGroup int
}

// Name implements Format.
func (f LimitedPtr) Name() string { return fmt.Sprintf("ptr%d", f.K) }

func (f LimitedPtr) group() int {
	if f.OverflowGroup <= 0 {
		return 4
	}
	return f.OverflowGroup
}

// Encode implements Format.
func (f LimitedPtr) Encode(s bitvec.Vec) EncodedSharers {
	if s.Count() <= f.K {
		var ptrs []int
		s.ForEach(func(i int) { ptrs = append(ptrs, i) })
		return EncodedSharers{ptrs: ptrs}
	}
	return EncodedSharers{mask: coarsen(s, f.group()), coarse: f.group(), overflowed: true}
}

// Decode implements Format.
func (f LimitedPtr) Decode(e EncodedSharers, cores int) bitvec.Vec {
	if !e.overflowed {
		v := bitvec.New(cores)
		for _, p := range e.ptrs {
			v.Set(p)
		}
		return v
	}
	return uncoarsen(e.mask, e.coarse, cores)
}

// Coarse is the coarse-vector format: one bit per G cores.
type Coarse struct {
	// G is the number of cores per mask bit.
	G int
}

// Name implements Format.
func (f Coarse) Name() string { return fmt.Sprintf("coarse%d", f.G) }

// Encode implements Format.
func (f Coarse) Encode(s bitvec.Vec) EncodedSharers {
	return EncodedSharers{mask: coarsen(s, f.G), coarse: f.G}
}

// Decode implements Format.
func (f Coarse) Decode(e EncodedSharers, cores int) bitvec.Vec {
	if e.mask.Len() == 0 {
		return bitvec.New(cores)
	}
	return uncoarsen(e.mask, e.coarse, cores)
}

func coarsen(s bitvec.Vec, g int) bitvec.Vec {
	groups := (s.Len() + g - 1) / g
	m := bitvec.New(groups)
	s.ForEach(func(i int) { m.Set(i / g) })
	return m
}

func uncoarsen(m bitvec.Vec, g, cores int) bitvec.Vec {
	v := bitvec.New(cores)
	m.ForEach(func(grp int) {
		for i := grp * g; i < (grp+1)*g && i < cores; i++ {
			v.Set(i)
		}
	})
	return v
}
