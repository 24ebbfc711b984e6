// Command tracegen characterizes the synthetic workload models: for each
// application profile (the 17 of Table II plus the five workload
// families) it reports the reference mix, footprints and sharer-set
// structure, and optionally dumps a trace segment or writes the full
// trace to a versioned trace file (internal/tracefile) for replay via
// `experiments -trace-file`.
//
//	tracegen                     # characterization table for all apps
//	tracegen -app barnes -dump 20
//	tracegen -app falseshare -cores 32 -write falseshare.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"tinydir/internal/bitvec"
	"tinydir/internal/trace"
	"tinydir/internal/tracefile"
)

func main() {
	var (
		appName = flag.String("app", "", "restrict to one application")
		cores   = flag.Int("cores", 32, "core count (sharer sets clamp to it); the simulator accepts at most 128 cores")
		refs    = flag.Int("refs", 4000, "references per core to sample")
		dump    = flag.Int("dump", 0, "print the first N references of core 0")
		write   = flag.String("write", "", "write the generated trace (requires -app) to this file and print its digest")
	)
	flag.Parse()
	if *cores < 1 || *cores > bitvec.MaxBits {
		fmt.Fprintf(os.Stderr, "tracegen: -cores %d outside [1,%d]\n", *cores, bitvec.MaxBits)
		os.Exit(2)
	}

	apps := append(trace.Apps(), trace.FamilyApps()...)
	if *appName != "" {
		p, ok := trace.AppByName(*appName)
		if !ok {
			fmt.Fprintf(os.Stderr, "tracegen: unknown app %q\n", *appName)
			os.Exit(2)
		}
		apps = []trace.Profile{p}
	}

	if *write != "" {
		if *appName == "" {
			fmt.Fprintln(os.Stderr, "tracegen: -write requires -app")
			os.Exit(2)
		}
		p := apps[0]
		g := trace.NewGen(p, *cores)
		tf := &tracefile.File{Name: p.Name, Traces: g.Traces(*refs), Stats: g.Stats()}
		digest, err := tracefile.WriteFile(*write, tf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: app=%s cores=%d refs=%d format=v%d\nsha256 %s\n",
			*write, p.Name, *cores, *refs, tracefile.FormatVersion, digest)
		return
	}

	fmt.Printf("%-12s %7s %7s %7s %8s %9s %8s %8s\n",
		"app", "loads", "stores", "ifetch", "distinct", "sharedRef", "groups", "gapMean")
	for _, p := range apps {
		g := trace.NewGen(p, *cores)
		var loads, stores, ifetch, shared int
		distinct := map[uint64]bool{}
		gapSum := 0
		n := 0
		perCore := g.Traces(*refs)
		for _, refs := range perCore {
			for _, r := range refs {
				n++
				gapSum += int(r.Gap)
				distinct[r.Addr] = true
				switch r.Kind {
				case trace.Load:
					loads++
				case trace.Store:
					stores++
				case trace.Ifetch:
					ifetch++
				}
			}
		}
		// Shared references: blocks touched by more than one core.
		owners := map[uint64]int{}
		multi := map[uint64]bool{}
		for c, refs := range perCore {
			for _, r := range refs {
				if prev, ok := owners[r.Addr]; ok && prev != c {
					multi[r.Addr] = true
				}
				owners[r.Addr] = c
			}
		}
		for _, refs := range perCore {
			for _, r := range refs {
				if multi[r.Addr] {
					shared++
				}
			}
		}
		fmt.Printf("%-12s %6.1f%% %6.1f%% %6.1f%% %8d %8.1f%% %8d %8.2f\n",
			p.Name,
			100*float64(loads)/float64(n),
			100*float64(stores)/float64(n),
			100*float64(ifetch)/float64(n),
			len(distinct),
			100*float64(shared)/float64(n),
			g.Groups(),
			float64(gapSum)/float64(n))
	}

	if *dump > 0 {
		p := apps[0]
		g := trace.NewGen(p, *cores)
		fmt.Printf("\nfirst %d references of %s core 0:\n", *dump, p.Name)
		for i, r := range g.CoreTrace(0, *dump) {
			kind := map[trace.Kind]string{trace.Load: "LD", trace.Store: "ST", trace.Ifetch: "IF"}[r.Kind]
			fmt.Printf("%4d %s %#014x gap=%d\n", i, kind, r.Addr, r.Gap)
		}
	}
}
