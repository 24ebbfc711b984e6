package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tinydir"
	"tinydir/internal/cache"
	"tinydir/internal/dram"
	"tinydir/internal/mesh"
	"tinydir/internal/proto"
	"tinydir/internal/runstore"
	"tinydir/internal/sim"
	"tinydir/internal/sweepd"
	"tinydir/internal/trackertest"
)

// Microbenchmarks time one layer in isolation at the 128-core machine's
// geometry. Each runs microReps timed rounds after an untimed one and
// reports the median round.
const microReps = 5

// perOp times reps rounds of round, which returns its operation count,
// and returns the median nanoseconds per operation.
func perOp(reps int, round func() int) float64 {
	round()
	v := make([]float64, reps)
	for r := range v {
		start := time.Now()
		n := round()
		v[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(v)
}

func iters(base int, scale float64) int { return max(64, int(float64(base)*scale)) }

// chain is a handler that reschedules itself until its budget runs out,
// with delays in [base, base+spread).
type chain struct {
	eng          *sim.Engine
	left         int
	base, spread sim.Time
}

func (c *chain) OnEvent(op int, addr uint64, arg int64) {
	if c.left == 0 {
		return
	}
	c.left--
	c.eng.ScheduleAfter(c.base+sim.Time(addr*7+uint64(c.left))%c.spread, c, op, addr, arg)
}

// engineStep is ns per scheduled-and-executed event with 64 events in
// flight; base >= 1024 keeps every event in the overflow heap.
func engineStep(n int, base, spread sim.Time) float64 {
	return perOp(microReps, func() int {
		eng := &sim.Engine{}
		c := &chain{eng: eng, left: n, base: base, spread: spread}
		for a := uint64(0); a < 64; a++ {
			eng.ScheduleAt(sim.Time(a), c, 0, a, 0)
		}
		return int(eng.Run(0))
	})
}

// llcSets and llcWays are one 128-core LLC bank (DefaultConfig).
const llcSets, llcWays = 256, 16

func cacheMicros(n int, out map[string]float64) {
	c := cache.New[proto.LLCMeta](llcSets, llcWays, cache.LRU)
	for a := uint64(0); a < llcSets*llcWays; a++ {
		c.Insert(a)
	}
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(llcSets * llcWays))
	}
	hits := 0
	out["cache.lookup_ns"] = perOp(microReps, func() int {
		for i := 0; i < n; i++ {
			if c.Lookup(addrs[i&(len(addrs)-1)]) != nil {
				hits++
			}
		}
		return n
	})
	next := uint64(llcSets * llcWays)
	out["cache.insert_evict_ns"] = perOp(microReps, func() int {
		for i := 0; i < n; i++ {
			c.Insert(next)
			next++
		}
		return n
	})
	if hits == 0 {
		panic("cache micro: lookups missed a resident set")
	}
}

// trackerOp is one request of the tracker microbenchmark's stream.
type trackerOp struct {
	addr uint64
	core int
	kind proto.ReqKind
}

// trackerMicro drives one 128-core tracker slice through a home bank's
// Begin, LLC fill and Commit sequence on a stream of reads, writes and
// evictions, and returns ns per request.
func trackerMicro(n int, mk func() proto.Tracker) float64 {
	const cores, bankShift = 128, 7
	env := trackertest.New(llcSets, llcWays, cores)
	env.Shift = bankShift
	env.Llc.SetIndexShift(bankShift)
	tr := mk()
	tr.Attach(env)
	rng := rand.New(rand.NewSource(2))
	ops := make([]trackerOp, 1<<16)
	for i := range ops {
		blk := rng.Intn(8192) // twice the bank's LLC capacity
		if rng.Intn(5) != 0 {
			blk = rng.Intn(1024) // a hot fifth of it takes most requests
		}
		kind := proto.GetS
		switch r := rng.Intn(20); {
		case r < 5:
			kind = proto.GetX
		case r < 6:
			kind = proto.PutS // an eviction by a current holder
		}
		ops[i] = trackerOp{addr: uint64(blk) << bankShift, core: rng.Intn(cores), kind: kind}
	}
	i := 0
	return perOp(microReps, func() int {
		for k := 0; k < n; k++ {
			op := ops[i&(len(ops)-1)]
			i++
			trackerStep(env, tr, op)
		}
		return n
	})
}

func trackerStep(env *trackertest.Env, tr proto.Tracker, op trackerOp) {
	dl := dataLine(env.Llc, op.addr)
	v := tr.Begin(op.addr, op.kind, dl != nil)
	e := v.E
	var next proto.Entry
	switch op.kind {
	case proto.GetS:
		switch {
		case e.State == proto.Unowned:
			next = proto.Entry{State: proto.Exclusive, Owner: op.core}
		case e.State == proto.Exclusive && e.Owner == op.core:
			next = e
		case e.State == proto.Exclusive:
			next = proto.Entry{State: proto.Shared, Sharers: env.Sharers(e.Owner, op.core)}
		default:
			s := e.Sharers.Clone()
			s.Set(op.core)
			next = proto.Entry{State: proto.Shared, Sharers: s}
		}
	case proto.GetX:
		next = proto.Entry{State: proto.Exclusive, Owner: op.core, Dirty: true}
	default:
		// The eviction comes from the block's first holder, if any.
		switch e.State {
		case proto.Unowned:
			return
		case proto.Exclusive:
			tr.Commit(op.addr, proto.PutE, e.Owner, proto.Entry{State: proto.Unowned})
			return
		}
		first := e.Sharers.First()
		if first < 0 {
			return
		}
		s := e.Sharers.Clone()
		s.Clear(first)
		next = proto.Entry{State: proto.Shared, Sharers: s}
		if s.Empty() {
			next = proto.Entry{State: proto.Unowned}
		}
		tr.Commit(op.addr, proto.PutS, first, next)
		return
	}
	if dl == nil {
		v := env.Llc.Victim(op.addr)
		if v.Valid {
			tr.OnLLCVictim(v)
		}
		env.Llc.Replace(v, op.addr)
	}
	tr.Commit(op.addr, op.kind, op.core, next)
}

// dataLine finds addr's data block, skipping spilled tracking entries
// that share its tag.
func dataLine(llc *proto.LLC, addr uint64) *proto.LLCLine {
	tags := llc.TagsIn(addr)
	for w := range tags {
		if tags[w] == addr {
			l := &llc.LinesIn(addr)[w]
			if l.Valid && l.Addr == addr && !l.Meta.Spill {
				return l
			}
		}
	}
	return nil
}

// sink counts delivered events.
type sink struct{ n int }

func (s *sink) OnEvent(op int, addr uint64, arg int64) { s.n++ }

// meshSend is ns per message sent and delivered across the 16x8 mesh.
func meshSend(n int) float64 {
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]int, 1<<12)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(128), rng.Intn(128)}
	}
	return perOp(microReps, func() int {
		eng := &sim.Engine{}
		m := mesh.New(eng, mesh.Config{Width: 16, Height: 8})
		s := &sink{}
		for i := 0; i < n; i++ {
			p := pairs[i&(len(pairs)-1)]
			m.SendEvent(p[0], p[1], mesh.DataBytes, mesh.Processor, s, 0, uint64(i), 0)
			if i%256 == 255 {
				eng.Run(0)
			}
		}
		eng.Run(0)
		return s.n
	})
}

// dramRead is ns per block read scheduled and completed on the eight
// controllers, 64 reads in flight.
func dramRead(n int) float64 {
	rng := rand.New(rand.NewSource(4))
	blks := make([]uint64, 1<<12)
	for i := range blks {
		blks[i] = uint64(rng.Intn(1 << 20))
	}
	return perOp(microReps, func() int {
		eng := &sim.Engine{}
		mem := dram.New(eng, 8)
		s := &sink{}
		for i := 0; i < n; i++ {
			mem.ReadEvent(blks[i&(len(blks)-1)], s, 0, 0)
			if i%64 == 63 {
				eng.Run(0)
			}
		}
		eng.Run(0)
		return s.n
	})
}

// storeMicros measures put and get throughput of the two store stacks
// the system uses: the local Verified(Dir) and a worker's
// Verified(LRU(Client)) against a Dir served over loopback HTTP.
func storeMicros(work string, scale float64, out map[string]float64) error {
	local, err := runstore.NewDir(filepath.Join(work, "verified_dir"))
	if err != nil {
		return err
	}
	served, err := runstore.NewDir(filepath.Join(work, "served"))
	if err != nil {
		return err
	}
	srv := httptest.NewServer(runstore.NewServer(served))
	defer srv.Close()
	stacks := []struct {
		name string
		b    runstore.Backend
	}{
		{"verified_dir", runstore.NewVerified(local)},
		{"verified_lru_http", runstore.NewVerified(runstore.NewLRU(runstore.NewClient(srv.URL), 64<<20))},
	}
	sizes := []struct {
		name  string
		bytes int
		n     int
	}{
		{"16mb", 16 << 20, max(1, int(2*scale))},
		{"2kb", 2 << 10, iters(256, scale)},
	}
	rng := rand.New(rand.NewSource(5))
	for _, sz := range sizes {
		data := make([]byte, sz.bytes)
		rng.Read(data)
		for _, st := range stacks {
			var put, get []float64
			for rep := 0; rep < 3; rep++ {
				key := func(i int) string { return fmt.Sprintf("%s%d_%d", sz.name, rep, i) }
				start := time.Now()
				for i := 0; i < sz.n; i++ {
					if err := st.b.Put("bench", key(i), data, false); err != nil {
						return fmt.Errorf("%s put: %w", st.name, err)
					}
				}
				put = append(put, mbPerS(sz.bytes*sz.n, time.Since(start)))
				start = time.Now()
				for i := 0; i < sz.n; i++ {
					got, ok, err := st.b.Get("bench", key(i))
					if err != nil || !ok || len(got) != len(data) {
						return fmt.Errorf("%s get: ok=%v err=%v", st.name, ok, err)
					}
				}
				get = append(get, mbPerS(sz.bytes*sz.n, time.Since(start)))
			}
			out["runstore."+st.name+".put_mb_s_"+sz.name] = median(put)
			out["runstore."+st.name+".get_mb_s_"+sz.name] = median(get)
		}
	}
	return nil
}

func mbPerS(bytes int, d time.Duration) float64 { return float64(bytes) / (1 << 20) / d.Seconds() }

// sweepdRTT is the per-unit protocol cost of empty units: claim, done
// and the coordinator's bookkeeping, with the queue never empty. In
// microseconds per unit.
func sweepdRTT(c *sweepd.Coordinator, n int) (float64, error) {
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	defer c.Close()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, dispatchers)
	start := time.Now()
	for d := 0; d < dispatchers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if _, err := c.Do(sweepd.Unit{Key: fmt.Sprintf("u%06d", i), Payload: []byte("{}")}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for c.Status().Pending < dispatchers {
		time.Sleep(50 * time.Microsecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &sweepd.Worker{Base: srv.URL, Name: "micro", Poll: time.Millisecond,
		Run: func(string, []byte) ([]byte, error) { return []byte("{}"), nil }}
	werr := make(chan error, 1)
	go func() { werr <- w.Loop(ctx) }()
	wg.Wait()
	us := float64(time.Since(start).Microseconds()) / float64(n)
	cancel()
	<-werr
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return us, nil
}

// sweepdMicros measures the empty-unit round trip without a journal and
// the journal's added cost per unit, alternating the two.
func sweepdMicros(work string, scale float64, out map[string]float64) error {
	n := iters(200, scale)
	var off, on []float64
	for rep := 0; rep < 3; rep++ {
		us, err := sweepdRTT(sweepd.New(), n)
		if err != nil {
			return err
		}
		off = append(off, us)
		c, err := sweepd.RecoverCoordinator(filepath.Join(work, fmt.Sprintf("journal-%d", rep)))
		if err != nil {
			return err
		}
		if us, err = sweepdRTT(c, n); err != nil {
			return err
		}
		on = append(on, us)
	}
	out["sweepd.rtt_us"] = median(off)
	out["sweepd.journal_unit_us"] = median(on) - median(off)
	return nil
}

// micros runs every microbenchmark, using work as scratch space.
func micros(work string, scale float64) (map[string]float64, error) {
	out := map[string]float64{}
	n := iters(1<<20, scale)
	out["sim.schedule_step_ns"] = engineStep(n, 1, 64)
	out["sim.overflow_step_ns"] = engineStep(n, 2048, 4096)
	cacheMicros(iters(1<<20, scale), out)
	for _, m := range trackerModules {
		o := normalized(tinydir.Options{Scheme: m.scheme, Scale: fullSizes.big})
		_, mk, err := tracker(o.Scheme, machine(o.Scale))
		if err != nil {
			return nil, err
		}
		out[m.name+".begin_commit_ns"] = trackerMicro(iters(1<<17, scale), mk)
	}
	out["mesh.send_event_ns"] = meshSend(iters(1<<18, scale))
	out["dram.read_event_ns"] = dramRead(iters(1<<17, scale))
	if err := storeMicros(work, scale, out); err != nil {
		return nil, err
	}
	if err := sweepdMicros(work, scale, out); err != nil {
		return nil, err
	}
	return out, nil
}
