package sweepd

// Journal + recovery tests (DESIGN.md §14): a recovered coordinator must
// hold the exact queue/lease/done state its predecessor journaled, a
// torn WAL tail must truncate cleanly at the last valid record, the
// journal directory must hold nothing but the WAL, and a restarted
// coordinator must fence its predecessor's leases by epoch.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// submitWait submits a unit and blocks until it is actually enqueued
// (Do runs on a goroutine; tests that claim immediately after need the
// record to exist).
func submitWait(t *testing.T, c *Coordinator, u Unit) chan doResult {
	t.Helper()
	ch := submit(c, u)
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		_, ok := c.recs[u.Key]
		c.mu.Unlock()
		if ok {
			return ch
		}
		if time.Now().After(deadline) {
			t.Fatalf("unit %s never enqueued", u.Key)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// recover1 builds a recovered coordinator or fails the test.
func recover1(t *testing.T, dir string) *Coordinator {
	t.Helper()
	c, err := RecoverCoordinator(dir)
	if err != nil {
		t.Fatalf("RecoverCoordinator(%s): %v", dir, err)
	}
	return c
}

func TestRecoverFreshDir(t *testing.T) {
	c := recover1(t, filepath.Join(t.TempDir(), "journal"))
	defer c.Close()
	if got := c.Epoch(); got != 1 {
		t.Fatalf("fresh epoch = %d, want 1", got)
	}
	st := c.Status()
	if st.Total != 0 || st.Journal == nil {
		t.Fatalf("fresh status: %+v", st)
	}
}

// TestRecoveryRoundTrip drives one incarnation through every lifecycle
// transition, then recovers and checks the rebuilt state exactly: done
// units answer Do instantly with their recorded results, failed units
// answer their recorded errors, pending units keep claim order, leased
// units requeue, expiry counts survive.
func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1 := recover1(t, dir)
	c1.LeaseTTL = time.Minute

	chDone := submitWait(t, c1, Unit{Key: "udone", Payload: []byte("pd")})
	chFail := submitWait(t, c1, Unit{Key: "ufail", Payload: []byte("pf")})
	submitWait(t, c1, Unit{Key: "upend1", Payload: []byte("p1")})
	submitWait(t, c1, Unit{Key: "upend2", Payload: []byte("p2")})
	submitWait(t, c1, Unit{Key: "uleased", Payload: []byte("pl")})

	mustClaim := func(c *Coordinator, worker, want string) {
		t.Helper()
		u, _, _, ok, _ := c.claim(worker, nil)
		if !ok || u.Key != want {
			t.Fatalf("claim by %s got (%q, %v), want %q", worker, u.Key, ok, want)
		}
	}
	// Submission order is claim order.
	mustClaim(c1, "w1", "udone")
	if err := c1.complete("w1", "udone", 1, []byte("result-bytes"), ""); err != nil {
		t.Fatal(err)
	}
	mustClaim(c1, "w1", "ufail")
	if err := c1.complete("w1", "ufail", 1, nil, "boom"); err != nil {
		t.Fatal(err)
	}
	mustClaim(c1, "w2", "upend1")
	<-chDone
	<-chFail
	c1.Close() // flushes and closes the journal

	c2 := recover1(t, dir)
	defer c2.Close()
	if got := c2.Epoch(); got != 2 {
		t.Fatalf("second incarnation epoch = %d, want 2", got)
	}

	// Done/failed answer instantly, no workers attached.
	if b, err := c2.Do(Unit{Key: "udone"}); err != nil || string(b) != "result-bytes" {
		t.Fatalf("recovered done unit: %q, %v", b, err)
	}
	if _, err := c2.Do(Unit{Key: "ufail"}); err == nil || !bytes.Contains([]byte(err.Error()), []byte("boom")) {
		t.Fatalf("recovered failed unit: %v", err)
	}

	// upend1 was leased at crash time: requeued. Queue order: journaled
	// pending order first (upend2), then requeued leases.
	mustClaim(c2, "w3", "upend2")
	mustClaim(c2, "w3", "uleased")
	mustClaim(c2, "w3", "upend1")
	if _, _, _, ok, _ := c2.claim("w3", nil); ok {
		t.Fatal("claim after draining recovered queue should find no work")
	}
	st := c2.Status()
	if st.Done != 1 || st.Failed != 1 || st.Leased != 3 || st.Pending != 0 {
		t.Fatalf("recovered status: %+v", st)
	}
}

// TestRecoveryPreservesExpiries: lease-expiry counts survive recovery,
// so a unit cannot dodge MaxExpiries by crashing the coordinator.
func TestRecoveryPreservesExpiries(t *testing.T) {
	dir := t.TempDir()
	c1 := recover1(t, dir)
	c1.LeaseTTL = time.Nanosecond
	submitWait(t, c1, Unit{Key: "flaky", Payload: nil})
	for i := 0; i < 3; i++ {
		if u, _, _, ok, _ := c1.claim("victim", nil); !ok || u.Key != "flaky" {
			t.Fatalf("claim %d failed", i)
		}
		time.Sleep(time.Millisecond) // let the nanosecond lease lapse
		c1.Status()                  // expiry scan
	}
	c1.Close()

	c2 := recover1(t, dir)
	defer c2.Close()
	st := c2.Status()
	if len(st.Units) != 1 || st.Units[0].Expiries != 3 {
		t.Fatalf("recovered expiries: %+v", st.Units)
	}
}

// TestTornTailTruncation: recovery from every possible prefix of the WAL
// must succeed (the tail after the last valid frame is truncated away),
// be idempotent (recovering the truncated journal again yields the same
// state), and leave the journal appendable.
func TestTornTailTruncation(t *testing.T) {
	master := t.TempDir()
	c1 := recover1(t, master)
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("u%d", i)
		submitWait(t, c1, Unit{Key: key, Payload: []byte{byte(i)}})
		if u, _, _, ok, _ := c1.claim("w", nil); !ok || u.Key != key {
			t.Fatalf("claim %s failed", key)
		}
		if err := c1.complete("w", key, 1, []byte("r"+key), ""); err != nil {
			t.Fatal(err)
		}
	}
	c1.Close()
	wal, err := os.ReadFile(filepath.Join(master, walName))
	if err != nil {
		t.Fatal(err)
	}

	for cut := len(wal); cut >= 0; cut-- {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c := recover1(t, dir)
		doneA := c.Status().Done
		c.Close()

		// Idempotence: the truncated-and-recovered journal recovers to
		// the identical state a second time.
		c2 := recover1(t, dir)
		if doneB := c2.Status().Done; doneB != doneA {
			t.Fatalf("cut=%d: second recovery sees %d done, first saw %d", cut, doneB, doneA)
		}
		// Still appendable: a fresh transition journals and survives
		// another recovery. The truncated prefix may have left earlier
		// units pending (their claim/done records were cut away), so
		// drain the queue until the fresh unit surfaces.
		submitWait(t, c2, Unit{Key: "fresh", Payload: nil})
		claimed := ""
		for i := 0; i < 8 && claimed != "fresh"; i++ {
			u, _, _, ok, _ := c2.claim("w", nil)
			if !ok {
				break
			}
			claimed = u.Key
		}
		if claimed != "fresh" {
			t.Fatalf("cut=%d: fresh unit never claimable (last %q)", cut, claimed)
		}
		if err := c2.complete("w", "fresh", c2.Epoch(), []byte("rf"), ""); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		c2.Close()
		c3 := recover1(t, dir)
		if b, err := c3.Do(Unit{Key: "fresh"}); err != nil || string(b) != "rf" {
			t.Fatalf("cut=%d: post-truncation append lost: %q, %v", cut, b, err)
		}
		c3.Close()
	}
}

// TestTornMiddleCorruption: a bit flip mid-WAL truncates everything from
// the damaged frame on — recovery still succeeds and the prefix state is
// intact.
func TestTornMiddleCorruption(t *testing.T) {
	dir := t.TempDir()
	c1 := recover1(t, dir)
	submitWait(t, c1, Unit{Key: "early", Payload: nil})
	if u, _, _, ok, _ := c1.claim("w", nil); !ok || u.Key != "early" {
		t.Fatal("claim failed")
	}
	if err := c1.complete("w", "early", 1, []byte("re"), ""); err != nil {
		t.Fatal(err)
	}
	// Group commit buffers records until the fsync boundary; flush so
	// the on-disk prefix actually contains the early unit's records.
	c1.mu.Lock()
	if err := c1.journal.sync(); err != nil {
		c1.mu.Unlock()
		t.Fatal(err)
	}
	c1.mu.Unlock()
	walBefore, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	submitWait(t, c1, Unit{Key: "late", Payload: nil})
	c1.Close()

	// Flip a byte in the first record after the prefix we measured.
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) <= len(walBefore) {
		t.Fatalf("no bytes appended after prefix (%d <= %d)", len(wal), len(walBefore))
	}
	wal[len(walBefore)+4] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := recover1(t, dir)
	defer c2.Close()
	if b, err := c2.Do(Unit{Key: "early"}); err != nil || string(b) != "re" {
		t.Fatalf("prefix state lost: %q, %v", b, err)
	}
	if st := c2.Status(); st.Total != 1 {
		t.Fatalf("damaged suffix survived: %+v", st)
	}
}

// TestJournalIsOneFile: heartbeats extend leases without journaling
// anything (recovery requeues every lease regardless), and after a
// sweep the journal directory holds the WAL and nothing else.
func TestJournalIsOneFile(t *testing.T) {
	dir := t.TempDir()
	c := recover1(t, dir)
	c.LeaseTTL = time.Minute
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("h%d", i)
		submitWait(t, c, Unit{Key: key, Payload: []byte{byte(i)}})
		if u, _, _, ok, _ := c.claim("w", nil); !ok || u.Key != key {
			t.Fatalf("claim %s failed", key)
		}
		before := c.Status().Journal.Records
		for hb := 0; hb < 5; hb++ {
			if _, ok, _ := c.heartbeat("w", key, c.Epoch(), nil); !ok {
				t.Fatalf("heartbeat %d on %s refused", hb, key)
			}
		}
		if after := c.Status().Journal.Records; after != before {
			t.Fatalf("5 heartbeats appended %d journal records, want 0", after-before)
		}
		if err := c.complete("w", key, c.Epoch(), []byte("r"), ""); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != walName {
		t.Fatalf("journal directory holds %q, want only %s", names, walName)
	}
}

// TestRefusesCompactedJournal: a directory left by a coordinator that
// compacted into state.snap holds only the WAL suffix after the
// snapshot, so recovery refuses it rather than drop the snapshot's units.
func TestRefusesCompactedJournal(t *testing.T) {
	dir := t.TempDir()
	c := recover1(t, dir)
	submitWait(t, c, Unit{Key: "kept", Payload: []byte("p")})
	c.Close()
	if err := os.WriteFile(filepath.Join(dir, legacySnapName), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if c2, err := RecoverCoordinator(dir); err == nil {
		c2.Close()
		t.Fatal("recovered a journal directory holding state.snap")
	} else if !strings.Contains(err.Error(), legacySnapName) {
		t.Fatalf("refusal %q does not name %s", err, legacySnapName)
	}
}

// TestEpochFencing: a restarted coordinator answers its predecessor's
// lease traffic with 412 (heartbeat and completion), current-epoch
// requests pass, and epoch 0 is fenced like any other stale epoch.
func TestEpochFencing(t *testing.T) {
	dir := t.TempDir()
	c1 := recover1(t, dir)
	c1.LeaseTTL = time.Minute
	srv1 := startCoord(t, c1)
	ch1 := submitWait(t, c1, Unit{Key: "fenced0", Payload: []byte("p")})
	cl := claimOne(t, srv1.URL, "old-worker")
	if cl.Epoch != 1 {
		t.Fatalf("first incarnation lease epoch = %d, want 1", cl.Epoch)
	}
	srv1.Close()
	c1.Close()
	if r := <-ch1; r.err != ErrClosed {
		t.Fatalf("predecessor Do: %v", r.err)
	}

	c2 := recover1(t, dir)
	if got := c2.Epoch(); got != 2 {
		t.Fatalf("restarted epoch = %d, want 2", got)
	}
	srv2 := startCoord(t, c2)
	post := func(path string, req interface{}) (*http.Response, uint64) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv2.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var epoch uint64
		fmt.Sscan(resp.Header.Get(epochHeader), &epoch)
		return resp, epoch
	}

	// Stale-epoch heartbeat: fenced, and the response names the current
	// epoch so the worker can resync.
	resp, epoch := post("/heartbeat", heartbeatRequest{Worker: "old-worker", Key: "fenced0", Epoch: cl.Epoch})
	if resp.StatusCode != http.StatusPreconditionFailed || epoch != 2 {
		t.Fatalf("stale heartbeat: status %d, header epoch %d", resp.StatusCode, epoch)
	}
	// Stale-epoch completion: fenced too.
	resp, _ = post("/done", doneRequest{Worker: "old-worker", Key: "fenced0", Epoch: cl.Epoch, Result: []byte("r")})
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("stale completion: status %d", resp.StatusCode)
	}
	// The recovered coordinator requeued the unit; a fresh claim serves
	// it under epoch 2 and its completion lands.
	ch2 := submitWait(t, c2, Unit{Key: "fenced0", Payload: []byte("p")})
	cl2 := claimOne(t, srv2.URL, "new-worker")
	if cl2.Key != "fenced0" || cl2.Epoch != 2 {
		t.Fatalf("re-claim: %+v", cl2)
	}
	resp, _ = post("/done", doneRequest{Worker: "new-worker", Key: "fenced0", Epoch: cl2.Epoch, Result: []byte("r2")})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("current-epoch completion: status %d", resp.StatusCode)
	}
	if r := <-ch2; r.err != nil || string(r.b) != "r2" {
		t.Fatalf("fenced unit outcome: %q, %v", r.b, r.err)
	}
	// Epoch 0 names no incarnation: fenced (412), never "lease gone".
	resp, _ = post("/heartbeat", heartbeatRequest{Worker: "zero", Key: "fenced0"})
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("epoch-0 heartbeat: status %d, want 412", resp.StatusCode)
	}
}

// TestWorkerRidesEpochBump: end to end — a worker claims from incarnation
// one, the coordinator is replaced mid-unit, the worker's heartbeat gets
// fenced, it drops the lease, re-claims from the successor and the sweep
// finishes. The proxy keeps the worker's base URL stable across the
// restart, as a load balancer or stable DNS name would.
func TestWorkerRidesEpochBump(t *testing.T) {
	dir := t.TempDir()
	c1 := recover1(t, dir)
	c1.LeaseTTL = 300 * time.Millisecond
	srv1 := httptest.NewServer(c1.Handler())

	proxy := newRetargetProxy(t, srv1.URL)

	release := make(chan struct{})
	var runs int32
	w := &Worker{
		Base: proxy.URL(), Name: "rider", Poll: 10 * time.Millisecond,
		Run: func(key string, payload []byte) ([]byte, error) {
			atomic.AddInt32(&runs, 1)
			<-release // hold the unit across the coordinator swap
			return []byte("rode"), nil
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	loopDone := make(chan error, 1)

	ch1 := submitWait(t, c1, Unit{Key: "bump0", Payload: nil})
	go func() { loopDone <- w.Loop(ctx) }()

	// Wait until the worker holds the unit.
	waitFor(t, ctx, func() bool { return atomic.LoadInt32(&runs) == 1 })

	// Swap incarnations under the proxy.
	srv1.Close()
	c1.Close()
	<-ch1 // ErrClosed
	c2 := recover1(t, dir)
	c2.LeaseTTL = 300 * time.Millisecond
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	proxy.Retarget(srv2.URL)
	ch2 := submitWait(t, c2, Unit{Key: "bump0", Payload: nil})

	// Let the held run finish: its completion is fenced (epoch 1), the
	// worker re-claims bump0 under epoch 2 and completes it for real.
	close(release)
	if r := <-ch2; r.err != nil || string(r.b) != "rode" {
		t.Fatalf("unit after epoch bump: %q, %v", r.b, r.err)
	}
	if n := atomic.LoadInt32(&runs); n != 2 {
		t.Fatalf("unit ran %d times, want 2 (once per epoch)", n)
	}
	c2.Close()
	if err := <-loopDone; err != nil {
		t.Fatalf("worker loop: %v", err)
	}
}
