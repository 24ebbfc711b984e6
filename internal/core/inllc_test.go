package core

import (
	"testing"

	"tinydir/internal/proto"
	"tinydir/internal/trackertest"
)

func excl(owner int) proto.Entry { return proto.Entry{State: proto.Exclusive, Owner: owner} }

func sharedBy(env *trackertest.Env, cores ...int) proto.Entry {
	return proto.Entry{State: proto.Shared, Sharers: env.Sharers(cores...)}
}

func TestInLLCCorruptedLifecycle(t *testing.T) {
	env := trackertest.New(8, 8, 8)
	tr := NewInLLC(false)
	tr.Attach(env)

	// Untracked block: unowned view, LLC data usable.
	v := tr.Begin(42, proto.GetS, false)
	if v.E.State != proto.Unowned || !v.SupplyFromLLC || v.ExtraLatency != 0 {
		t.Fatalf("fresh view %+v", v)
	}
	line := env.Fill(42)
	eff := tr.Commit(42, proto.GetS, 3, excl(3))
	if !line.Meta.Corrupted || eff.LLCStateWrites != 1 {
		t.Fatalf("commit did not corrupt the line: %+v eff=%+v", line.Meta, eff)
	}

	// Corrupted exclusive: +3 cycles decode, supply still fine (forward).
	v = tr.Begin(42, proto.GetS, true)
	if v.E.State != proto.Exclusive || v.E.Owner != 3 || v.ExtraLatency != 3 || !v.SupplyFromLLC {
		t.Fatalf("corrupted-exclusive view %+v", v)
	}

	// Shared transition: reads now cannot be supplied by the LLC.
	tr.Commit(42, proto.GetS, 5, sharedBy(env, 3, 5))
	v = tr.Begin(42, proto.GetS, true)
	if v.E.State != proto.Shared || v.SupplyFromLLC || v.ExtraLatency != 1 {
		t.Fatalf("corrupted-shared view %+v", v)
	}

	// Last sharer leaves via PutS: reconstruction bits from the evictor.
	tr.Commit(42, proto.PutS, 3, sharedBy(env, 5))
	eff = tr.Commit(42, proto.PutS, 5, proto.Entry{State: proto.Unowned})
	if len(eff.ReconFromCores) != 1 || eff.ReconFromCores[0] != 5 {
		t.Fatalf("no reconstruction request: %+v", eff)
	}
	if line.Meta.Corrupted {
		t.Fatal("line still corrupted after unowned")
	}
	if _, ok := tr.Lookup(42); ok {
		t.Fatal("still tracked")
	}
}

func TestInLLCPutMNeedsNoRecon(t *testing.T) {
	env := trackertest.New(8, 8, 8)
	tr := NewInLLC(false)
	tr.Attach(env)
	env.Fill(7)
	tr.Commit(7, proto.GetX, 2, excl(2))
	eff := tr.Commit(7, proto.PutM, 2, proto.Entry{State: proto.Unowned})
	if len(eff.ReconFromCores) != 0 {
		t.Fatalf("PutM carries full data; no recon bits needed: %+v", eff)
	}
}

func TestInLLCTagExtendedNeverCorrupts(t *testing.T) {
	env := trackertest.New(8, 8, 8)
	tr := NewInLLC(true)
	tr.Attach(env)
	line := env.Fill(9)
	tr.Commit(9, proto.GetS, 1, sharedBy(env, 1, 2))
	if line.Meta.Corrupted {
		t.Fatal("tag-extended variant corrupted the data")
	}
	v := tr.Begin(9, proto.GetS, true)
	if !v.SupplyFromLLC || v.ExtraLatency != 0 {
		t.Fatalf("tag-extended view %+v", v)
	}
	if v.E.State != proto.Shared {
		t.Fatalf("state lost: %+v", v.E)
	}
}

func TestInLLCVictimBackInvalidates(t *testing.T) {
	env := trackertest.New(8, 8, 8)
	tr := NewInLLC(false)
	tr.Attach(env)
	line := env.Fill(11)
	tr.Commit(11, proto.GetS, 4, sharedBy(env, 4, 6))
	eff := tr.OnLLCVictim(line)
	if len(eff.BackInvals) != 1 || eff.BackInvals[0].Addr != 11 {
		t.Fatalf("victim effects %+v", eff)
	}
	if eff.BackInvals[0].E.State != proto.Shared {
		t.Fatal("victim entry state lost")
	}
}

func TestInLLCSTRACountersAndStats(t *testing.T) {
	env := trackertest.New(8, 8, 8)
	tr := NewInLLC(false)
	tr.Attach(env)
	line := env.Fill(13)
	tr.Commit(13, proto.GetS, 1, sharedBy(env, 1, 2))
	for i := 0; i < 10; i++ {
		tr.Begin(13, proto.GetS, true) // shared reads -> STRAC
	}
	if line.Meta.STRAC != 10 {
		t.Fatalf("STRAC = %d", line.Meta.STRAC)
	}
	tr.Begin(13, proto.GetX, true) // other access -> OAC
	if line.Meta.OAC != 1 {
		t.Fatalf("OAC = %d", line.Meta.OAC)
	}
	m := map[string]uint64{}
	tr.Metrics(m)
	var got uint64
	for i := 1; i <= 7; i++ {
		got += m[accessCatKeys[i]]
	}
	if got != 10 {
		t.Fatalf("offending accesses binned %d, want 10", got)
	}
}

func TestInLLCCommitWithoutLinePanics(t *testing.T) {
	env := trackertest.New(8, 8, 8)
	tr := NewInLLC(false)
	tr.Attach(env)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Commit(77, proto.GetS, 0, excl(0)) // no LLC line filled
}
