package proto

import "testing"

func TestReqKindPredicates(t *testing.T) {
	reads := map[ReqKind]bool{GetS: true, GetI: true, GetX: false, Upg: false, PutE: false, PutM: false, PutS: false}
	evicts := map[ReqKind]bool{GetS: false, GetI: false, GetX: false, Upg: false, PutE: true, PutM: true, PutS: true}
	for k, want := range reads {
		if k.IsRead() != want {
			t.Errorf("%v.IsRead() = %v", k, k.IsRead())
		}
	}
	for k, want := range evicts {
		if k.IsEvict() != want {
			t.Errorf("%v.IsEvict() = %v", k, k.IsEvict())
		}
	}
}

func TestStringers(t *testing.T) {
	if GetS.String() != "GetS" || PutM.String() != "PutM" || Upg.String() != "Upg" {
		t.Fatal("ReqKind strings wrong")
	}
	if Unowned.String() != "Unowned" || Exclusive.String() != "Exclusive" || Shared.String() != "Shared" {
		t.Fatal("State strings wrong")
	}
	if ReqKind(99).String() == "" || State(99).String() == "" {
		t.Fatal("unknown values must still stringify")
	}
}

func TestEffectsMerge(t *testing.T) {
	a := Effects{
		BackInvals:     []Victim{{Addr: 1}},
		ReconFromCores: []int{3},
		LLCStateWrites: 2,
		LLCWritebacks:  []uint64{9},
	}
	b := Effects{
		BackInvals:     []Victim{{Addr: 2}, {Addr: 3}},
		ReconFromCores: []int{4, 5},
		LLCStateWrites: 1,
		LLCWritebacks:  []uint64{10},
	}
	a.Merge(b)
	if len(a.BackInvals) != 3 || len(a.ReconFromCores) != 3 || a.LLCStateWrites != 3 || len(a.LLCWritebacks) != 2 {
		t.Fatalf("merge result %+v", a)
	}
}
