// Command tinysim runs one simulation configuration and prints its
// metrics: an application profile from Table II, a coherence-tracking
// scheme, and a scale.
//
//	tinysim -app barnes -scheme tiny -ratio 1/128 -gnru -spill -scale experiment
//	tinysim -app TPC-C -scheme sparse -ratio 2
//	tinysim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tinydir"
)

func main() {
	var (
		appName = flag.String("app", "bodytrack", "application profile (see -list)")
		scheme  = flag.String("scheme", "sparse", "sparse | sharedonly | sharedonly-skew | inllc | inllc-tagext | tiny | mgd | stash")
		ratio   = flag.String("ratio", "2", "directory size ratio, e.g. 2, 1/16, 1/128")
		gnru    = flag.Bool("gnru", false, "tiny: enable the gNRU allocation policy")
		spill   = flag.Bool("spill", false, "tiny: enable dynamic spilling")
		scale   = flag.String("scale", "experiment", "test | experiment | full")
		list    = flag.Bool("list", false, "list application profiles and exit")
	)
	flag.Parse()

	if *list {
		for _, p := range tinydir.Apps() {
			fmt.Println(p.Name)
		}
		return
	}
	r, err := parseRatio(*ratio)
	if err != nil {
		fatal(err)
	}
	var sch tinydir.Scheme
	switch *scheme {
	case "sparse":
		sch = tinydir.SparseDirectory(r)
	case "sharedonly":
		sch = tinydir.SharedOnlyDirectory(r, false)
	case "sharedonly-skew":
		sch = tinydir.SharedOnlyDirectory(r, true)
	case "inllc":
		sch = tinydir.InLLC(false)
	case "inllc-tagext":
		sch = tinydir.InLLC(true)
	case "tiny":
		sch = tinydir.TinyDirectory(r, *gnru, *spill)
	case "mgd":
		sch = tinydir.MgD(r)
	case "stash":
		sch = tinydir.Stash(r)
	default:
		fatal(fmt.Errorf("unknown scheme %q", *scheme))
	}
	sc, err := tinydir.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}

	res := tinydir.Run(tinydir.Options{App: tinydir.App(*appName), Scheme: sch, Scale: sc})
	m := res.Metrics
	fmt.Printf("app=%s scheme=%s cores=%d\n", res.App, res.Scheme, res.Cores)
	fmt.Printf("cycles            %12d\n", m.Cycles)
	fmt.Printf("L1 hits           %12d\n", m.L1Hits)
	fmt.Printf("L2 hits           %12d\n", m.L2Hits)
	fmt.Printf("private misses    %12d\n", m.PrivateMisses)
	fmt.Printf("LLC accesses      %12d\n", m.LLCAccesses)
	fmt.Printf("LLC miss rate     %12.4f\n", m.LLCMissRate())
	fmt.Printf("lengthened        %12.4f  (code %d, data %d)\n", m.LengthenedFrac(), m.LengthenedCode, m.LengthenedData)
	fmt.Printf("spill-avoided     %12.4f\n", m.SpillAvoidedFrac())
	fmt.Printf("back-invals       %12d\n", m.BackInvals)
	fmt.Printf("nacks/retries     %12d %d\n", m.Nacks, m.Retries)
	fmt.Printf("traffic proc/wb/coh %10d %d %d bytes*hops\n", m.TrafficBytes[0], m.TrafficBytes[1], m.TrafficBytes[2])
	fmt.Printf("dram reads/writes %12d %d (row hits %d)\n", m.DRAMReads, m.DRAMWrites, m.DRAMRowHits)
	for _, k := range tinydir.SortedTrackerKeys(m.Tracker) {
		fmt.Printf("  %-24s %12d\n", k, m.Tracker[k])
	}
}

func parseRatio(s string) (float64, error) {
	if num, den, ok := strings.Cut(s, "/"); ok {
		n, err1 := strconv.ParseFloat(num, 64)
		d, err2 := strconv.ParseFloat(den, 64)
		if err1 != nil || err2 != nil || d == 0 {
			return 0, fmt.Errorf("bad ratio %q", s)
		}
		return n / d, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad ratio %q", s)
	}
	return v, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tinysim:", err)
	os.Exit(2)
}
