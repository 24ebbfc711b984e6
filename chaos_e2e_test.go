package tinydir

// End-to-end chaos: a real figure sweep — coordinator with a journal,
// verified store, two RunSweepWorker fleets — driven through a
// fault-injecting proxy that serves 5xx bursts, drops connections,
// truncates responses and slows requests on a seeded schedule. The
// acceptance bar is the same as the clean distributed test: the figure
// CSV must come out byte-identical to a plain local build, with zero
// failures and zero quarantined store entries. Coordinator kill/restart
// chaos lives in internal/sweepd's harness and the CI smoke job; this
// test pins the full tinydir stack (store keys, checkpoints, digest
// verification, result merge) under wire faults.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tinydir/internal/fault"
	"tinydir/internal/runstore"
	"tinydir/internal/telemetry"
)

// chaosProxy fronts the coordinator for the whole worker protocol —
// /sweepd/ and /store/ alike — injecting faults drawn from the
// counter-based splitmix stream, so a seed fixes the fault schedule
// for a given request ordering.
type chaosProxy struct {
	target                        string
	seed                          uint64
	n                             uint64 // atomic draw counter
	p5xx, pDrop, pTruncate, pSlow float64
	injected                      uint64 // atomic, all classes
}

func (p *chaosProxy) draw() uint64 {
	n := atomic.AddUint64(&p.n, 1) - 1
	return fault.Splitmix(p.seed, 1, n)
}

func (p *chaosProxy) serve(w http.ResponseWriter, r *http.Request) {
	// One draw per fault class per request keeps the stream aligned with
	// the request ordinal regardless of which faults fire.
	inject5xx := p.draw() < fault.Threshold(p.p5xx)
	injectDrop := p.draw() < fault.Threshold(p.pDrop)
	injectTrunc := p.draw() < fault.Threshold(p.pTruncate)
	injectSlow := p.draw() < fault.Threshold(p.pSlow)

	if injectSlow {
		time.Sleep(10 * time.Millisecond)
	}
	if inject5xx {
		atomic.AddUint64(&p.injected, 1)
		http.Error(w, "chaos: injected 5xx", http.StatusBadGateway)
		return
	}
	if injectDrop {
		atomic.AddUint64(&p.injected, 1)
		panic(http.ErrAbortHandler) // connection reset, no response
	}

	body, err := io.ReadAll(r.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.Path, strings.NewReader(string(body)))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if injectTrunc && len(respBody) > 1 {
		// Advertise the full length, deliver half, cut the connection.
		atomic.AddUint64(&p.injected, 1)
		w.Header().Set("Content-Length", fmt.Sprint(len(respBody)))
		w.WriteHeader(resp.StatusCode)
		w.Write(respBody[:len(respBody)/2])
		panic(http.ErrAbortHandler)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
}

// TestChaosSweepEndToEnd: for each seed, the faulted distributed figure
// is byte-identical to the local oracle, the journal recovers to a
// fully-done sweep, and the verified store never quarantined anything.
func TestChaosSweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is a full-mode test")
	}
	// One oracle serves every seed.
	local := NewSuite(ScaleTest)
	local.Workers = 4
	var want bytes.Buffer
	if err := local.Fig1().WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{3, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosE2E(t, seed, want.Bytes())
		})
	}
}

func runChaosE2E(t *testing.T, seed uint64, want []byte) {
	coord := NewSuite(ScaleTest)
	coord.Workers = 4
	store, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	journalDir := t.TempDir()
	mux := http.NewServeMux()
	svc, err := AttachSweepServiceCfg(coord, store, mux, SweepServiceConfig{JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	svc.Coord.LeaseTTL = 2 * time.Second // dropped heartbeats must not expire live workers
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer svc.Close()

	proxy := &chaosProxy{
		target: srv.URL, seed: seed,
		p5xx: 0.04, pDrop: 0.02, pTruncate: 0.02, pSlow: 0.05,
	}
	psrv := httptest.NewServer(http.HandlerFunc(proxy.serve))
	defer psrv.Close()

	figCh := make(chan Figure, 1)
	go func() { figCh <- coord.Fig1() }()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	workerErr := make(chan error, 2)
	// Workers check the seals of what they read, so their own integrity
	// counters are where wire damage would show up as a quarantine.
	workerRegs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	for i, name := range []string{"chaos-w1", "chaos-w2"} {
		go func(name string, reg *telemetry.Registry) {
			workerErr <- RunSweepWorker(ctx, WorkerConfig{
				Coordinator: psrv.URL, // every protocol + store byte rides the proxy
				Name:        name,
				CacheBytes:  1 << 20,
				Registry:    reg,
			})
		}(name, workerRegs[i])
	}

	var fig Figure
	select {
	case fig = <-figCh:
	case <-ctx.Done():
		t.Fatalf("seed %d: figure never completed (%d faults injected)", seed, atomic.LoadUint64(&proxy.injected))
	}
	var got bytes.Buffer
	if err := fig.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("seed %d: chaos CSV diverged from local build:\n--- local ---\n%s\n--- chaos ---\n%s",
			seed, want, got.String())
	}
	if n := len(coord.Failures()); n != 0 {
		t.Fatalf("seed %d: sweep recorded %d failures: %+v", seed, n, coord.Failures())
	}
	st := svc.Coord.Status()
	if st.Done != st.Total || st.Pending != 0 || st.Leased != 0 || st.Failed != 0 {
		t.Fatalf("seed %d: coordinator not drained: %+v", seed, st)
	}
	// Wire faults must never have looked like data corruption: a
	// quarantine here would mean a truncated or garbled body got past
	// the transport checks into the verified layer.
	if v := runstore.FindVerified(store.Backend()); v == nil {
		t.Fatal("coordinator store is not integrity-wrapped")
	} else if c := v.Counters(); c.Quarantined != 0 {
		t.Fatalf("seed %d: store quarantined %d entries under wire chaos", seed, c.Quarantined)
	}
	for i, reg := range workerRegs {
		seen := false
		for _, s := range reg.Snapshot() {
			if s.Name != "runstore_integrity_quarantines_total" {
				continue
			}
			seen = true
			if s.Value != 0 {
				t.Fatalf("seed %d: worker %d quarantined %v entries under wire chaos", seed, i+1, s.Value)
			}
		}
		if !seen {
			t.Fatalf("worker %d exports no integrity counters", i+1)
		}
	}
	if atomic.LoadUint64(&proxy.injected) == 0 {
		t.Fatalf("seed %d: proxy injected no faults; chaos schedule is dead", seed)
	}

	svc.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerErr:
			if err != nil {
				t.Errorf("seed %d worker exit: %v", seed, err)
			}
		case <-ctx.Done():
			t.Fatal("workers never exited after Close")
		}
	}

	// The journal survived: a second incarnation recovers the finished
	// sweep under a bumped epoch, no fleet required.
	resumed := NewSuite(ScaleTest)
	mux2 := http.NewServeMux()
	svc2, err := AttachSweepServiceCfg(resumed, store, mux2, SweepServiceConfig{JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Coord.Epoch(); got != 2 {
		t.Fatalf("seed %d: recovered epoch = %d, want 2", seed, got)
	}
	if st2 := svc2.Coord.Status(); st2.Done != st.Total || st2.Pending != 0 || st2.Leased != 0 {
		t.Fatalf("seed %d: recovered coordinator state: %+v", seed, st2)
	}
}
