// Package energy provides the analytic cache-energy model standing in for
// CACTI/McPAT (Fig. 21). Per-access dynamic energies and leakage powers
// are derived from structure capacity and associativity with scaling
// exponents fitted to published CACTI 6.5 numbers for a 22 nm node: SRAM
// dynamic read energy grows roughly with the square root of capacity (the
// bitline/wordline geometry), leakage grows linearly with capacity, and
// associativity multiplies the tag-compare cost.
package energy

import "math"

// Constants anchored to CACTI-class values at 22 nm: a 32 KB 8-way SRAM
// costs ~0.02 nJ per read and leaks ~15 mW; energies scale from there.
const (
	anchorBytes     = 32 * 1024
	anchorReadNJ    = 0.020
	anchorWriteNJ   = 0.024
	anchorLeakWatts = 0.015
	tagFactorPerWay = 0.004 // extra dynamic fraction per way of tag compare
)

// Structure models one SRAM structure (an LLC bank data array, a tag
// array, or a directory slice).
type Structure struct {
	Bytes int
	Ways  int
}

// ReadNJ returns the dynamic energy of one read in nanojoules.
func (s Structure) ReadNJ() float64 {
	scale := math.Sqrt(float64(s.Bytes) / anchorBytes)
	return anchorReadNJ * scale * (1 + tagFactorPerWay*float64(s.Ways))
}

// WriteNJ returns the dynamic energy of one write in nanojoules.
func (s Structure) WriteNJ() float64 {
	scale := math.Sqrt(float64(s.Bytes) / anchorBytes)
	return anchorWriteNJ * scale * (1 + tagFactorPerWay*float64(s.Ways))
}

// LeakWatts returns the leakage power in watts.
func (s Structure) LeakWatts() float64 {
	return anchorLeakWatts * float64(s.Bytes) / anchorBytes
}

// Activity is the event counts of one simulation, taken from
// system.Metrics.
type Activity struct {
	LLCTagReads   uint64
	LLCDataReads  uint64
	LLCDataWrites uint64 // includes coherence-state writes
	DirReads      uint64
	DirWrites     uint64
	Cycles        uint64
	ClockHz       float64
}

// Model is the LLC + directory energy model of one configuration.
type Model struct {
	LLCData Structure
	LLCTags Structure
	Dir     Structure
}

// DirectoryBytes computes the storage of a sparse directory with the
// given entries and bits per entry (the paper's Section V sizing: 155-bit
// entries plus tag).
func DirectoryBytes(entries, bitsPerEntry int) int {
	return entries * bitsPerEntry / 8
}

// Breakdown is the Fig. 21 energy split in joules.
type Breakdown struct {
	DynamicJ float64
	LeakageJ float64
}

// TotalJ returns dynamic plus leakage energy.
func (b Breakdown) TotalJ() float64 { return b.DynamicJ + b.LeakageJ }

// Energy evaluates the model over an activity record.
func (m Model) Energy(a Activity) Breakdown {
	if a.ClockHz == 0 {
		a.ClockHz = 2e9
	}
	dynNJ := float64(a.LLCTagReads)*m.LLCTags.ReadNJ() +
		float64(a.LLCDataReads)*m.LLCData.ReadNJ() +
		float64(a.LLCDataWrites)*m.LLCData.WriteNJ() +
		float64(a.DirReads)*m.Dir.ReadNJ() +
		float64(a.DirWrites)*m.Dir.WriteNJ()
	seconds := float64(a.Cycles) / a.ClockHz
	leakW := m.LLCData.LeakWatts() + m.LLCTags.LeakWatts() + m.Dir.LeakWatts()
	return Breakdown{DynamicJ: dynNJ * 1e-9, LeakageJ: leakW * seconds}
}
