package trace

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	p, _ := AppByName("barnes")
	g1 := NewGen(p, 16)
	g2 := NewGen(p, 16)
	a := g1.CoreTrace(3, 500)
	b := g2.CoreTrace(3, 500)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCoresDiffer(t *testing.T) {
	p, _ := AppByName("bodytrack")
	g := NewGen(p, 8)
	a := g.CoreTrace(0, 200)
	b := g.CoreTrace(1, 200)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("cores produced identical traces")
	}
}

func TestAddressSpacesDisjoint(t *testing.T) {
	p, _ := AppByName("SPECjbb")
	g := NewGen(p, 16)
	g.noTranslate = true
	for core := 0; core < 16; core += 5 {
		for _, r := range g.CoreTrace(core, 1000) {
			switch {
			case r.Addr >= codeBase:
				if r.Kind != Ifetch {
					t.Fatalf("non-ifetch to code space: %+v", r)
				}
			case r.Addr >= sharedBase:
				if r.Kind == Ifetch {
					t.Fatalf("ifetch to shared data: %+v", r)
				}
			case r.Addr >= privBase:
				// Private addresses must fall in this core's stripe.
				want := privBase + uint64(core)*privStride
				if r.Addr < want || r.Addr >= want+privStride {
					t.Fatalf("core %d touched foreign private block %#x", core, r.Addr)
				}
			default:
				t.Fatalf("address %#x below all bases", r.Addr)
			}
		}
	}
}

func TestSharedBlocksAreShared(t *testing.T) {
	p, _ := AppByName("barnes")
	g := NewGen(p, 32)
	g.noTranslate = true
	// Collect which cores touch each shared block.
	touched := map[uint64]map[int]bool{}
	for core := 0; core < 32; core++ {
		for _, r := range g.CoreTrace(core, 2000) {
			if r.Addr >= sharedBase && r.Addr < codeBase {
				if touched[r.Addr] == nil {
					touched[r.Addr] = map[int]bool{}
				}
				touched[r.Addr][core] = true
			}
		}
	}
	multi := 0
	for _, cs := range touched {
		if len(cs) >= 2 {
			multi++
		}
	}
	if multi < len(touched)/3 {
		t.Fatalf("only %d/%d shared blocks touched by 2+ cores", multi, len(touched))
	}
}

func TestProfileMixesRoughlyMatch(t *testing.T) {
	for _, p := range Apps() {
		g := NewGen(p, 16)
		var code, stores, n int
		for core := 0; core < 4; core++ {
			for _, r := range g.CoreTrace(core, 3000) {
				n++
				if r.Kind == Ifetch {
					code++
				}
				if r.Kind == Store {
					stores++
				}
			}
		}
		codeFrac := float64(code) / float64(n)
		if codeFrac < p.CodeFrac*0.5-0.02 || codeFrac > p.CodeFrac*1.5+0.02 {
			t.Errorf("%s: code fraction %.3f, profile %.3f", p.Name, codeFrac, p.CodeFrac)
		}
		if p.WriteFrac > 0.1 && stores == 0 {
			t.Errorf("%s: no stores generated", p.Name)
		}
	}
}

func TestSeventeenApps(t *testing.T) {
	apps := Apps()
	if len(apps) != 17 {
		t.Fatalf("got %d apps, want 17", len(apps))
	}
	seen := map[string]bool{}
	for _, p := range apps {
		if seen[p.Name] {
			t.Fatalf("duplicate app %s", p.Name)
		}
		seen[p.Name] = true
		if p.Seed == 0 {
			t.Fatalf("%s has zero seed", p.Name)
		}
	}
	if _, ok := AppByName("nonexistent"); ok {
		t.Fatal("AppByName found a nonexistent app")
	}
}

func TestSharerSetsRespectSizes(t *testing.T) {
	p := Profile{
		Name: "x", Seed: 5, PrivateBlocks: 10, PrivateReuse: 1,
		SharedFrac: 1.0,
		Groups:     []SharedGroup{{Count: 3, Blocks: 8, Sharers: 4, Weight: 1}},
		Gap:        1,
	}
	g := NewGen(p, 16)
	if g.Groups() != 3 {
		t.Fatalf("groups %d", g.Groups())
	}
	for _, inst := range g.groups {
		if len(inst.sharers) != 4 {
			t.Fatalf("sharer set size %d, want 4", len(inst.sharers))
		}
		seen := map[int]bool{}
		for _, c := range inst.sharers {
			if c < 0 || c >= 16 || seen[c] {
				t.Fatalf("bad sharer set %v", inst.sharers)
			}
			seen[c] = true
		}
	}
}

// Property: generated traces always have the requested length and gaps
// bounded by the profile.
func TestTraceLengthProperty(t *testing.T) {
	p, _ := AppByName("TPC-C")
	g := NewGen(p, 8)
	f := func(coreRaw, nRaw uint8) bool {
		core := int(coreRaw) % 8
		n := int(nRaw)%500 + 1
		refs := g.CoreTrace(core, n)
		if len(refs) != n {
			return false
		}
		for _, r := range refs {
			if int(r.Gap) > p.Gap*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The page translation must be a collision-free injection over the
// footprints in play and must scatter consecutive pages.
func TestTranslateInjective(t *testing.T) {
	seen := map[uint64]uint64{}
	bases := []uint64{privBase, privBase + 5*privStride, sharedBase, codeBase}
	for _, base := range bases {
		for k := uint64(0); k < 20000; k++ {
			v := base + k
			ph := translate(v)
			if prev, ok := seen[ph]; ok && prev != v {
				t.Fatalf("collision: %#x and %#x -> %#x", prev, v, ph)
			}
			seen[ph] = v
		}
	}
	// Same page offset preserved, different pages scattered.
	if translate(privBase)%pageBlocks != privBase%pageBlocks {
		t.Fatal("page offset not preserved")
	}
	a := translate(privBase) / pageBlocks
	b := translate(privBase+pageBlocks) / pageBlocks
	if a+1 == b {
		t.Fatal("consecutive pages not scattered (suspicious)")
	}
}
