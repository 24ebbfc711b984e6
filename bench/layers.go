package main

import "time"

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// layers turns the traced run's spans, counters and microbenchmarks into
// the per-layer metrics. Simulator layers come from the workload's own
// traced units (main), except the Begin and Commit times of trackers the
// workload does not use, which come from their probe units (missing); the
// snapshot and run-store layers come from whichever traced pass went
// through the store, and the fleet layers from the traced fleet pass or
// probe.
func layers(tr *tracer, main, probe, missing *simTrace, ft *fleetTrace, micro map[string]float64) map[string]float64 {
	L := map[string]float64{}
	for k, v := range micro {
		L[k] = v
	}
	p50 := func(name, phase string) float64 { return median(durMS(tr.durations(name, phase))) }

	L["trace.gen_ms_p50"] = p50("trace.gen", phaseMain)
	L["system.new_ms_p50"] = p50("system.new", phaseMain)
	L["system.release_ms_p50"] = p50("system.release", phaseMain)
	L["system.collect_ms_p50"] = p50("system.collect", phaseMain)
	var fixed time.Duration
	for _, n := range []string{"trace.gen", "system.new", "system.start", "system.collect", "system.release"} {
		fixed += sum(tr.durations(n, phaseMain))
	}
	L["system.fixed_share"] = ratio(fixed.Seconds(), sum(tr.durations("unit", phaseMain)).Seconds())

	refs := float64(main.refs)
	L["sim.events_per_ref"] = ratio(float64(main.events), refs)
	L["sim.ns_per_event"] = ratio(float64(main.runTime.Nanoseconds()), float64(main.events))
	L["sim.ring_depth_p50"] = median(main.ring)
	L["sim.overflow_depth_max"] = float64(main.overMax)

	var l1, l2, miss, nacks, retries, fwds, binv, bcast, bytehops, dramR, dramW, rowHits float64
	for _, m := range main.metrics {
		l1 += float64(m.L1Hits)
		l2 += float64(m.L2Hits)
		miss += float64(m.PrivateMisses)
		nacks += float64(m.Nacks)
		retries += float64(m.Retries)
		fwds += float64(m.Forwards)
		binv += float64(m.BackInvals)
		bcast += float64(m.Broadcasts)
		bytehops += float64(m.TotalTraffic())
		dramR += float64(m.DRAMReads)
		dramW += float64(m.DRAMWrites)
		rowHits += float64(m.DRAMRowHits)
	}
	L["cache.l1_hit_frac"] = ratio(l1, l1+l2+miss)
	L["cache.l2_hit_frac"] = ratio(l2, l2+miss)
	L["system.nacks_per_kref"] = ratio(1000*nacks, refs)
	L["system.retries_per_kref"] = ratio(1000*retries, refs)
	L["system.forwards_per_kref"] = ratio(1000*fwds, refs)
	L["system.back_invals_per_kref"] = ratio(1000*binv, refs)
	L["system.broadcasts_per_kref"] = ratio(1000*bcast, refs)
	L["mesh.bytehops_per_ref"] = ratio(bytehops, refs)
	L["dram.reads_per_kref"] = ratio(1000*dramR, refs)
	L["dram.row_hit_frac"] = ratio(rowHits, dramR+dramW)

	for name, ts := range main.trackers {
		r := float64(ts.refs)
		L[name+".begin_per_ref"] = ratio(float64(ts.begins), r)
		L[name+".commit_per_ref"] = ratio(float64(ts.commits), r)
		L[name+".victim_per_ref"] = ratio(float64(ts.victims), r)
		if ts.beginSamples == 0 {
			ts = missing.trackers[name]
		}
		L[name+".begin_ns"] = ratio(float64(ts.beginNs.Nanoseconds()), float64(ts.beginSamples))
		L[name+".commit_ns"] = ratio(float64(ts.commitNs.Nanoseconds()), float64(ts.commitN))
	}

	L["snapshot.save_ms_p50"] = p50("snapshot.save", "")
	L["snapshot.restore_ms_p50"] = p50("snapshot.restore", "")
	L["snapshot.mb_p50"] = median(append(append([]float64(nil), main.snapMB...), probe.snapMB...))
	for _, layer := range []string{"verified", "dir"} {
		for _, op := range []string{"get_ckpt", "put_ckpt", "get_result", "put_result"} {
			L["runstore."+layer+"."+op+"_ms_p50"] = p50("runstore."+layer+"."+op, "")
		}
	}
	if ft != nil {
		fleetLayers(ft, L)
	}
	return L
}

func fleetLayers(ft *fleetTrace, L map[string]float64) {
	queue, exec, store, overhead := ft.perUnit()
	n := float64(len(exec))
	ft.mu.Lock()
	defer ft.mu.Unlock()
	L["sweepd.claim_ms_p50"] = median(durMS(ft.claims))
	L["sweepd.done_ms_p50"] = median(durMS(ft.dones))
	L["sweepd.queue_ms_p50"] = median(durMS(queue))
	L["sweepd.exec_ms_p50"] = median(durMS(exec))
	L["sweepd.store_ms_p50"] = median(durMS(store))
	L["sweepd.unit_overhead_ms_p50"] = median(durMS(overhead))
	L["sweepd.unit_overhead_ms_tail"] = quantile(durMS(overhead), tailPercentile(len(overhead))/100)
	L["sweepd.claim_empty_per_unit"] = ratio(float64(ft.emptyClaims), n)
	L["sweepd.heartbeats_per_unit"] = ratio(float64(ft.heartbeats), n)
	if j := ft.status.Journal; j != nil {
		L["sweepd.journal_records_per_unit"] = ratio(float64(j.Records), n)
		L["sweepd.journal_fsyncs_per_unit"] = ratio(float64(j.Fsyncs), n)
	}
	L["runstore.http.get_ms_p50"] = median(durMS(ft.gets))
	L["runstore.http.put_ms_p50"] = median(durMS(ft.puts))
	var hits, misses float64
	for _, w := range ft.status.Workers {
		if w.Report != nil {
			hits += float64(w.Report.StoreHits)
			misses += float64(w.Report.StoreMisses)
		}
	}
	L["runstore.lru.hit_frac"] = ratio(hits, hits+misses)
}
