package mesh

import (
	"testing"
	"testing/quick"

	"tinydir/internal/sim"
)

// arrivals implements sim.Handler, recording each delivery's op and
// arrival time.
type arrivals struct {
	eng   *sim.Engine
	ops   []int
	times []sim.Time
}

func (a *arrivals) OnEvent(op int, addr uint64, arg int64) {
	a.ops = append(a.ops, op)
	a.times = append(a.times, a.eng.Now())
}

func TestDist(t *testing.T) {
	var e sim.Engine
	m := New(&e, Config{Width: 4, Height: 2})
	cases := []struct{ a, b, want int }{
		{0, 0, 1}, // local delivery still crosses the NI
		{0, 1, 1}, // neighbors
		{0, 3, 3}, // across a row
		{0, 7, 4}, // corner to corner: dx=3, dy=1
		{3, 4, 4}, // (3,0) -> (0,1)
		{5, 5, 1},
	}
	for _, c := range cases {
		if got := m.Dist(c.a, c.b); got != c.want {
			t.Errorf("Dist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if m.Latency(0, 7) != sim.Time(4*HopCycles) {
		t.Fatalf("Latency = %d", m.Latency(0, 7))
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	var e sim.Engine
	m := New(&e, Config{Width: 16, Height: 8})
	f := func(a, b uint8) bool {
		x, y := int(a)%(16*8), int(b)%(16*8)
		d := m.Dist(x, y)
		if d != m.Dist(y, x) {
			return false
		}
		return d >= 1 && d <= 16+8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendDeliversAndAccounts(t *testing.T) {
	var e sim.Engine
	m := New(&e, Config{Width: 4, Height: 4})
	a := &arrivals{eng: &e}
	at := m.SendEvent(0, 15, DataBytes, Processor, a, 7, 0, 0)
	wantLat := sim.Time(m.Dist(0, 15) * HopCycles)
	if at != wantLat {
		t.Fatalf("delivery at %d, want %d", at, wantLat)
	}
	e.Run(0)
	if len(a.ops) != 1 || a.ops[0] != 7 || a.times[0] != at {
		t.Fatalf("deliveries %v at %v, want op 7 at %d", a.ops, a.times, at)
	}
	if m.TrafficBytes(Processor) != uint64(DataBytes*m.Dist(0, 15)) {
		t.Fatalf("traffic %d", m.TrafficBytes(Processor))
	}
	if m.Messages(Processor) != 1 || m.Messages(Coherence) != 0 {
		t.Fatal("message counters wrong")
	}
}

// TestNoContentionByDefault: back-to-back messages from one node leave
// together and arrive together (the mesh models latency, not occupancy).
func TestNoContentionByDefault(t *testing.T) {
	var e sim.Engine
	m := New(&e, Config{Width: 2, Height: 1})
	a := &arrivals{eng: &e}
	m.SendEvent(0, 1, 72, Processor, a, 1, 0, 0)
	m.SendEvent(0, 1, 72, Processor, a, 2, 0, 0)
	e.Run(0)
	if a.times[0] != a.times[1] {
		t.Fatalf("back-to-back messages arrived at %d and %d", a.times[0], a.times[1])
	}
}

func TestAccount(t *testing.T) {
	var e sim.Engine
	m := New(&e, Config{Width: 4, Height: 2})
	m.Account(0, 3, CtrlBytes, Writeback)
	if m.TrafficBytes(Writeback) != uint64(CtrlBytes*3) {
		t.Fatalf("Account traffic %d", m.TrafficBytes(Writeback))
	}
	if m.TrafficBytes(Processor) != 0 || m.TrafficBytes(Coherence) != 0 {
		t.Fatal("Account charged a class it was not given")
	}
}

func TestClassString(t *testing.T) {
	if Processor.String() != "processor" || Writeback.String() != "writeback" || Coherence.String() != "coherence" {
		t.Fatal("String names wrong")
	}
}
