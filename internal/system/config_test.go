package system

import (
	"strings"
	"testing"

	"tinydir/internal/dir"
	"tinydir/internal/proto"
)

func TestMeshDims(t *testing.T) {
	cases := []struct{ tiles, w, h int }{
		{128, 16, 8}, // Table I
		{8, 4, 2},
		{16, 4, 4},
		{32, 8, 4},
		{64, 8, 8},
	}
	for _, c := range cases {
		w, h := meshDims(c.tiles)
		if w != c.w || h != c.h {
			t.Errorf("meshDims(%d) = %dx%d, want %dx%d", c.tiles, w, h, c.w, c.h)
		}
	}
}

func TestDirEntriesPerSlice(t *testing.T) {
	cfg := DefaultConfig(128)
	// L2 = 2048 blocks; Table I sizes: 2x -> 4096/slice, 1/32x -> 64,
	// 1/128x -> 16, 1/256x -> 8 (the paper's per-slice entry counts).
	cases := []struct {
		ratio float64
		want  int
	}{
		{2, 4096}, {1, 2048}, {1.0 / 32, 64}, {1.0 / 64, 32}, {1.0 / 128, 16}, {1.0 / 256, 8},
	}
	for _, c := range cases {
		if got := cfg.DirEntriesPerSlice(c.ratio); got != c.want {
			t.Errorf("DirEntriesPerSlice(%v) = %d, want %d", c.ratio, got, c.want)
		}
	}
	// Never below one entry.
	if cfg.DirEntriesPerSlice(1.0/1e9) != 1 {
		t.Error("ratio underflow not clamped")
	}
}

func TestTableOneCapacities(t *testing.T) {
	cfg := DefaultConfig(128)
	if got := cfg.L1Sets * cfg.L1Ways * 64; got != 32*1024 {
		t.Errorf("L1 = %d bytes, want 32 KB", got)
	}
	if got := cfg.L2Sets * cfg.L2Ways * 64; got != 128*1024 {
		t.Errorf("L2 = %d bytes, want 128 KB", got)
	}
	// LLC: 256 KB per bank x 128 banks = 32 MB.
	if got := cfg.LLCSets * cfg.LLCWays * 64 * 128; got != 32*1024*1024 {
		t.Errorf("LLC = %d bytes, want 32 MB", got)
	}
	// LLC block count equals a 2x directory's entry count (paper §I).
	if cfg.LLCSets*cfg.LLCWays*128 != cfg.DirEntriesPerSlice(2)*128 {
		t.Error("LLC blocks != 2x directory entries")
	}
}

func TestConfigValidation(t *testing.T) {
	ok := TestConfig(8)
	ok.NewTracker = func(int) proto.Tracker { return dir.NewSparse(8) }
	if err := ok.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := ok
	bad.Cores = 12 // not a power of two
	if err := bad.validate(); err == nil {
		t.Error("non-power-of-two cores accepted")
	}
	bad = ok
	bad.NewTracker = nil
	if err := bad.validate(); err == nil {
		t.Error("missing tracker accepted")
	}
	bad = ok
	bad.MemChannels = 0
	if err := bad.validate(); err == nil {
		t.Error("zero channels accepted")
	}
	bad = ok
	bad.Cores = MaxCores
	if err := bad.validate(); err != nil {
		t.Errorf("%d cores rejected: %v", MaxCores, err)
	}
	bad.Cores = 2 * MaxCores
	if err := bad.validate(); err == nil || !strings.Contains(err.Error(), "128-core limit") {
		t.Errorf("%d cores: err = %v, want the 128-core limit", bad.Cores, err)
	}
}

func TestBankShift(t *testing.T) {
	if DefaultConfig(128).bankShift() != 7 {
		t.Error("128 banks should shift 7 bits")
	}
	if TestConfig(8).bankShift() != 3 {
		t.Error("8 banks should shift 3 bits")
	}
}
