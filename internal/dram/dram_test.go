package dram

import (
	"testing"

	"tinydir/internal/sim"
)

// completions implements sim.Handler, recording each finished read's
// block and completion time.
type completions struct {
	eng   *sim.Engine
	blks  []uint64
	times []sim.Time
}

func (c *completions) OnEvent(op int, blk uint64, arg int64) {
	c.blks = append(c.blks, blk)
	c.times = append(c.times, c.eng.Now())
}

// readAndRun issues one read, drains the engine and returns the read's
// latency.
func readAndRun(e *sim.Engine, m *Memory, c *completions, blk uint64) sim.Time {
	start := e.Now()
	m.ReadEvent(blk, c, 0, 0)
	e.Run(0)
	return c.times[len(c.times)-1] - start
}

func TestReadLatencyColdRowHitConflict(t *testing.T) {
	var e sim.Engine
	m := New(&e, 1)
	c := &completions{eng: &e}

	// Cold access: row closed -> tRCD + tCAS + tBurst.
	if got, want := readAndRun(&e, m, c, 0), tRCD+tCAS+tBurst; got != want {
		t.Fatalf("cold read latency %d, want %d", got, want)
	}

	// Row hit: bank repeats every 8 blocks, a row spans 128 blocks within
	// a bank, so block 8 is bank 0 row 0.
	if got, want := readAndRun(&e, m, c, 8), tCAS+tBurst; got != want {
		t.Fatalf("row-hit latency %d, want %d", got, want)
	}

	// Row conflict: bank 0, different row. Row stride within a bank is
	// 8*128 = 1024 blocks.
	if got, want := readAndRun(&e, m, c, 1024), tRP+tRCD+tCAS+tBurst; got != want {
		t.Fatalf("row-conflict latency %d, want %d", got, want)
	}

	st := m.Stats()
	if st.Reads != 3 || st.RowHits != 1 || st.RowMisses != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBusSerialization(t *testing.T) {
	var e sim.Engine
	m := New(&e, 1)
	c := &completions{eng: &e}
	// Two reads to different banks, same channel: activations overlap but
	// bursts serialize on the data bus.
	m.ReadEvent(0, c, 0, 0) // bank 0
	m.ReadEvent(1, c, 0, 0) // bank 1
	e.Run(0)
	if len(c.times) != 2 {
		t.Fatalf("completed %d", len(c.times))
	}
	if c.times[1] <= c.times[0] {
		t.Fatal("bursts not serialized")
	}
}

func TestFRFCFSPromotesRowHit(t *testing.T) {
	var e sim.Engine
	m := New(&e, 1)
	c := &completions{eng: &e}
	// Prime bank 0 row 0 open.
	m.ReadEvent(0, c, 0, 0)
	e.Run(0)
	// Occupy the bus with a bank-1 access, then enqueue a row-conflict
	// (bank 0 row 2) ahead of a row-hit (bank 0 row 0); both sit pending
	// until the bus frees, at which point FR-FCFS promotes the hit.
	m.ReadEvent(1, c, 0, 0)    // bank 1, occupies bus
	m.ReadEvent(2048, c, 0, 0) // bank 0, row 2: conflict
	m.ReadEvent(16, c, 0, 0)   // bank 0, row 0: hit
	e.Run(0)
	if len(c.blks) != 4 {
		t.Fatalf("completed %v", c.blks)
	}
	if c.blks[2] != 16 || c.blks[3] != 2048 {
		t.Fatalf("row hit not promoted: order %v", c.blks)
	}
	if st := m.Stats(); st.RowHits != 1 {
		t.Fatalf("stats %+v, want exactly 1 row hit", st)
	}
}

func TestChannelsIndependent(t *testing.T) {
	var e sim.Engine
	m := New(&e, 8)
	c := &completions{eng: &e}
	for blk := uint64(0); blk < 8; blk++ {
		m.ReadEvent(blk, c, 0, 0)
	}
	e.Run(0)
	// All eight map to distinct channels and complete simultaneously.
	if len(c.times) != 8 {
		t.Fatalf("completed %d", len(c.times))
	}
	for _, ts := range c.times {
		if ts != c.times[0] {
			t.Fatalf("channels interfered: %v", c.times)
		}
	}
}

func TestWriteConsumesBankTime(t *testing.T) {
	var e sim.Engine
	m := New(&e, 1)
	c := &completions{eng: &e}
	m.Write(0)
	// Same bank/row as the write. The read must wait for the write burst;
	// a pure cold read would be tRCD+tCAS+tBurst, the write adds bus/bank
	// occupancy beyond that.
	if got := readAndRun(&e, m, c, 8); got <= tRCD+tCAS+tBurst {
		t.Fatalf("read latency %d not delayed by write", got)
	}
	if m.Stats().Writes != 1 {
		t.Fatal("write not counted")
	}
}

func TestDecodeStable(t *testing.T) {
	var e sim.Engine
	m := New(&e, 8)
	seen := map[int]bool{}
	for blk := uint64(0); blk < 64; blk++ {
		seen[m.Channel(blk)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("interleaving covers %d channels, want 8", len(seen))
	}
}
