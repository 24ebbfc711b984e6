package energy

import "testing"

// TestZeroActivityZeroTime: the all-zero activity record must produce an
// exactly zero breakdown — no dynamic events and no elapsed time to leak
// over (the default clock substitution must not manufacture energy).
func TestZeroActivityZeroTime(t *testing.T) {
	m := Model{
		LLCData: Structure{Bytes: 256 * 1024, Ways: 16},
		LLCTags: Structure{Bytes: 16 * 1024, Ways: 16},
		Dir:     Structure{Bytes: 64 * 1024, Ways: 8},
	}
	b := m.Energy(Activity{})
	if b.DynamicJ != 0 || b.LeakageJ != 0 || b.TotalJ() != 0 {
		t.Fatalf("zero activity yielded nonzero energy: %+v", b)
	}
}

// TestLeakageOnlyExact: with no accesses, the breakdown must be exactly the
// closed-form leakage integral leakW * Cycles / ClockHz, both at an
// explicit clock and at the 2 GHz default.
func TestLeakageOnlyExact(t *testing.T) {
	m := Model{
		LLCData: Structure{Bytes: 512 * 1024, Ways: 16},
		LLCTags: Structure{Bytes: 32 * 1024, Ways: 16},
		Dir:     Structure{Bytes: 96 * 1024, Ways: 8},
	}
	leakW := m.LLCData.LeakWatts() + m.LLCTags.LeakWatts() + m.Dir.LeakWatts()
	cases := []struct {
		cycles  uint64
		clockHz float64 // 0 selects the 2 GHz default
		wantHz  float64
	}{
		{1e9, 1e9, 1e9},
		{3e8, 4e9, 4e9},
		{1e8, 0, 2e9},
	}
	for _, c := range cases {
		b := m.Energy(Activity{Cycles: c.cycles, ClockHz: c.clockHz})
		if b.DynamicJ != 0 {
			t.Errorf("cycles=%d: leakage-only activity has dynamic energy %g", c.cycles, b.DynamicJ)
		}
		want := leakW * float64(c.cycles) / c.wantHz
		if b.LeakageJ != want {
			t.Errorf("cycles=%d clock=%g: LeakageJ = %g, want %g", c.cycles, c.clockHz, b.LeakageJ, want)
		}
	}
}

// TestDirectoryBytesRounding pins the integer-division boundary: entry
// sizes that are not byte multiples truncate, never round up.
func TestDirectoryBytesRounding(t *testing.T) {
	cases := []struct {
		entries, bits, want int
	}{
		{1, 7, 0}, // below one byte truncates to zero
		{1, 8, 1}, // exactly one byte
		{1, 9, 1}, // 9 bits still one byte
		{3, 5, 1}, // 15 bits aggregate to one byte
		{8, 1, 1}, // bits aggregate across entries before dividing
		{0, 187, 0},
		{64 * 128, 155 + 32, 64 * 128 * 187 / 8},
	}
	for _, c := range cases {
		if got := DirectoryBytes(c.entries, c.bits); got != c.want {
			t.Errorf("DirectoryBytes(%d, %d) = %d, want %d", c.entries, c.bits, got, c.want)
		}
	}
}
