package main

import (
	"fmt"
	"strings"

	"tinydir"
)

// path is the route a workload's units take through the system.
type path int

const (
	// pathLocal runs every unit serially through tinydir.Run.
	pathLocal path = iota
	// pathStore runs every unit through tinydir.RunWithStore on a fresh
	// directory store: a cold pass that leaves warmup checkpoints, then,
	// with results/ deleted, a warm pass that fast-forwards from them.
	pathStore
	// pathFleet dispatches every unit to one in-process sweep worker
	// through a journaled coordinator served over loopback HTTP.
	pathFleet
)

// sizes are the machine scales the workloads use. The benchmark runs at
// fullSizes; the smoke test shrinks every workload to 8 cores.
type sizes struct {
	big   tinydir.Scale // 128-core steady-state units
	short tinydir.Scale // 128-core units as short as soak and fleet units
	fleet tinydir.Scale // the fleet's 32-core units
	// micro scales the microbenchmarks' iteration counts.
	micro float64
}

var fullSizes = sizes{
	big:   tinydir.Scale{Name: "bench128", Cores: 128, Refs: 400},
	short: tinydir.Scale{Name: "short128", Cores: 128, Refs: 16},
	fleet: tinydir.Scale{Name: "bench32", Cores: 32, Refs: 400},
	micro: 1,
}

var smokeSizes = sizes{
	big:   tinydir.Scale{Name: "smoke", Cores: 8, Refs: 48},
	short: tinydir.Scale{Name: "smoke-short", Cores: 8, Refs: 8},
	fleet: tinydir.Scale{Name: "smoke-fleet", Cores: 8, Refs: 48},
	micro: 0.02,
}

// workload is one fixed, explicit list of simulation units. The why
// strings are the reasons each workload exists; BENCHMARK.json repeats
// them.
type workload struct {
	name  string
	why   string
	path  path
	units func(seed uint64, sz sizes) []tinydir.Options
}

var workloads = []workload{
	{
		name: "fig1-128",
		why:  "steady-state hot path: engine, caches, bank, mesh, DRAM and the sparse tracker on read-mostly traffic; per-unit set-up and teardown are about 7% of wall",
		path: pathLocal,
		units: func(seed uint64, sz sizes) []tinydir.Options {
			return cross(seed, tinydir.Apps(), sz.big, tinydir.SparseDirectory(2), tinydir.SparseDirectory(1.0/16))
		},
	},
	{
		name: "tiny-families-128",
		why:  "same engine and mesh under other trackers (DSTRA/gNRU/spill, corrupted in-LLC lines, Stash broadcasts) plus write-heavy families with NACK, retry and back-inval traffic",
		path: pathLocal,
		units: func(seed uint64, sz sizes) []tinydir.Options {
			u := cross(seed, tinydir.Apps(), sz.big, tinydir.TinyDirectory(1.0/256, true, true))
			return append(u, cross(seed, tinydir.FamilyApps(), sz.big,
				tinydir.InLLC(false), tinydir.TinyDirectory(1.0/64, true, true),
				tinydir.Stash(1.0/32), tinydir.SparseDirectory(1.0/8))...)
		},
	},
	{
		name: "short-128",
		why:  "units as small as soak and fleet units: trace generation, system.New, slab reuse, ReleaseStorage and collection take about a quarter of the wall",
		path: pathLocal,
		units: func(seed uint64, sz sizes) []tinydir.Options {
			var u []tinydir.Options
			for k := uint64(0); k < 10; k++ {
				u = append(u, cross(seed+1000*k, tinydir.Apps(), sz.short,
					tinydir.SparseDirectory(2), tinydir.TinyDirectory(1.0/256, true, true), tinydir.InLLC(false))...)
			}
			return u
		},
	},
	{
		name: "store-128",
		why:  "the checkpoint path: snapshot save and restore of about 15 MB per unit, sha256 verification and atomic writes dominate; absent from every other local workload",
		path: pathStore,
		units: func(seed uint64, sz sizes) []tinydir.Options {
			var apps []tinydir.Profile
			for i, app := range tinydir.Apps() {
				if i%2 == 0 {
					apps = append(apps, app)
				}
			}
			return cross(seed, apps, sz.big, tinydir.SparseDirectory(2))
		},
	},
	{
		name: "fleet-32",
		why:  "small units through coordinator and worker: claim, heartbeat and done calls, journal appends, leases and the worker's verified LRU-over-HTTP store take a large share of unit wall",
		path: pathFleet,
		units: func(seed uint64, sz sizes) []tinydir.Options {
			// The Fig. 1 and Fig. 13 unit lists, without the 2x baseline
			// the two figures share appearing twice.
			u := cross(seed, tinydir.Apps(), sz.fleet, tinydir.SparseDirectory(2),
				tinydir.SparseDirectory(1.0/4), tinydir.SparseDirectory(1.0/8), tinydir.SparseDirectory(1.0/16))
			return append(u, cross(seed, tinydir.Apps(), sz.fleet,
				tinydir.TinyDirectory(1.0/256, false, false), tinydir.TinyDirectory(1.0/256, true, false),
				tinydir.TinyDirectory(1.0/256, true, true))...)
		},
	},
}

// cross builds one unit per (scheme, app) pair, scheme-major, with seed
// added to every profile's own seed.
func cross(seed uint64, apps []tinydir.Profile, sc tinydir.Scale, schemes ...tinydir.Scheme) []tinydir.Options {
	var u []tinydir.Options
	for _, s := range schemes {
		for _, app := range apps {
			app.Seed += seed
			u = append(u, tinydir.Options{App: app, Scheme: s, Scale: sc})
		}
	}
	return u
}

// selectWorkloads resolves a comma-separated name list ("" = all).
func selectWorkloads(list string) ([]workload, error) {
	if list == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		w, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
