package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
)

// LatClass classifies a completed memory reference by how it was served.
// The classes mirror the protocol paths in internal/system: private cache
// hits, the 2-hop LLC fill, the 3-hop owner forward, the lengthened-block
// supply unique to the tiny-directory scheme, DRAM-bound fills, and
// references that were NACKed and retried at least once. Precedence when
// several apply: Retry > Lengthened > Fwd3Hop > DRAM > Fill2Hop.
type LatClass uint8

const (
	LatL1Hit LatClass = iota
	LatL2Hit
	LatFill2Hop // LLC-resident data, bank responds directly
	LatDRAM     // bank missed the LLC, data came from memory
	LatFwd3Hop  // bank forwarded to the owning core, owner supplied data
	LatLengthened
	LatRetry // NACKed at least once before completing
	NumLatClasses
)

var latClassNames = [NumLatClasses]string{
	"l1-hit", "l2-hit", "fill-2hop", "fill-dram", "fwd-3hop", "lengthened", "retry",
}

func (c LatClass) String() string {
	if int(c) < len(latClassNames) {
		return latClassNames[c]
	}
	return fmt.Sprintf("latclass(%d)", int(c))
}

// histBuckets covers every uint64: value v lands in bucket bits.Len64(v),
// i.e. bucket 0 holds only 0 and bucket i>0 holds [2^(i-1), 2^i - 1].
const histBuckets = 65

// Hist is a log2-bucketed histogram of cycle counts. Quantiles are derived
// from bucket upper bounds, so they are exact functions of the counts —
// deterministic and order-independent — at the cost of up-to-2x bucket
// granularity, which is the right trade for latency distributions spanning
// 4..100k cycles.
type Hist struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Observe adds one value.
func (h *Hist) Observe(v uint64) {
	h.Buckets[bits.Len64(v)]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// BucketHigh is the largest value bucket i can hold (the exposition's
// `le` bound for the bucket).
func BucketHigh(i int) uint64 {
	if i == 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// bucketLow is the smallest value bucket i can hold.
func bucketLow(i int) uint64 {
	if i == 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// Quantile returns the upper bound of the bucket containing the q-th
// sample (q in [0,1]), or 0 for an empty histogram. The rank is the
// nearest-rank ceiling ⌈q·Count⌉ — the smallest k such that at least a
// fraction q of the samples are ≤ the k-th — computed with a relative
// slop so float representation error (0.7*10 = 6.999…, 0.95*20 =
// 19.000…01) neither under- nor overshoots an exact integer product.
// The exact Max is returned for the last occupied bucket so p100 (and
// any quantile landing there) never overstates the tail.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count) * (1 - 1e-12)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum uint64
	last := 0
	for i := 0; i < histBuckets; i++ {
		if h.Buckets[i] == 0 {
			continue
		}
		last = i
		cum += h.Buckets[i]
		if cum >= rank {
			break
		}
	}
	if BucketHigh(last) > h.Max {
		return h.Max
	}
	return BucketHigh(last)
}

// Mean returns the exact arithmetic mean, or 0 for an empty histogram.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// LatencyRecorder holds one histogram per completion class.
type LatencyRecorder struct {
	Class [NumLatClasses]Hist
}

// Record adds one completed reference.
func (l *LatencyRecorder) Record(c LatClass, cycles uint64) {
	l.Class[c].Observe(cycles)
}

// WriteText emits the deterministic human-readable dump: one summary line
// per non-empty class followed by its occupied buckets.
func (l *LatencyRecorder) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "latency histograms (cycles, log2 buckets, quantiles from bucket bounds)\n"); err != nil {
		return err
	}
	for c := LatClass(0); c < NumLatClasses; c++ {
		h := &l.Class[c]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s count=%d mean=%.1f p50=%d p95=%d p99=%d max=%d\n",
			c, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
		for i := 0; i < histBuckets; i++ {
			if h.Buckets[i] == 0 {
				continue
			}
			fmt.Fprintf(w, "  [%d,%d] %d\n", bucketLow(i), BucketHigh(i), h.Buckets[i])
		}
	}
	return nil
}
