package sweepd

// The coordinator's write-ahead journal (DESIGN.md §14): an append-only,
// CRC-framed record stream of unit lifecycle transitions, so a
// coordinator that dies mid-sweep — kill -9, OOM, power loss — restarts
// into the exact queue/lease/done state it held, instead of losing the
// sweep.
//
// A journal directory holds one file, wal.log: an 8-byte magic followed
// by frames of [len u32][crc32 u32][payload]. It is never compacted: a
// sweep journals about three records per unit (enq, claim, done), so
// even the ~620 units of `-fig all` write about 2,000.
//
// Recovery replays the WAL, truncating at the first invalid frame: a
// torn tail from a crash mid-append costs exactly the records after the
// last complete fsync, each of which only re-does deterministic work.
// Damage earlier in the file is handled the same way, with a warning:
// the prefix before the bad frame is recovered, the rest is dropped.
//
// Appends are group-committed: the file is fsynced every syncEvery
// records (and always at epoch bumps and Close). Losing an unsynced
// suffix is safe for the same reason a torn tail is.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

const (
	walMagic = "tdwal001"
	walName  = "wal.log"

	// legacySnapName is the snapshot file compacting journals wrote
	// next to the WAL; a directory holding one is refused.
	legacySnapName = "state.snap"

	// maxJournalRecord bounds one frame's payload; anything larger in
	// the length field is framing damage, not a record.
	maxJournalRecord = 16 << 20

	// syncEvery is the group-commit batch: fsync once per this many
	// appended records.
	syncEvery = 16
)

// journalRecord is one WAL frame's payload: a unit lifecycle transition
// (or an epoch bump) in the order the coordinator committed it.
type journalRecord struct {
	T string // epoch | enq | claim | expire | done | fail

	Key      string `json:",omitempty"`
	Worker   string `json:",omitempty"`
	Payload  []byte `json:",omitempty"`
	Result   []byte `json:",omitempty"`
	Err      string `json:",omitempty"`
	Epoch    uint64 `json:",omitempty"`
	Terminal bool   `json:",omitempty"` // expire that failed the unit terminally
}

// journalUnit is one unit's recovered state.
type journalUnit struct {
	st       unitState
	payload  []byte
	worker   string
	expiries int
	result   []byte
	err      string
}

// recovered is the coordinator state WAL replay rebuilds.
type recovered struct {
	epoch uint64 // incarnation counter (bumped by each recovery)
	queue []string
	units map[string]*journalUnit
}

func (st *recovered) apply(rec journalRecord) {
	u := st.units[rec.Key]
	switch rec.T {
	case "epoch":
		st.epoch = rec.Epoch
	case "enq":
		if u == nil {
			st.units[rec.Key] = &journalUnit{st: statePending, payload: rec.Payload}
			st.queue = append(st.queue, rec.Key)
		}
	case "claim":
		if u != nil {
			u.st = stateLeased
			u.worker = rec.Worker
			st.dequeue(rec.Key)
		}
	case "expire":
		if u != nil {
			u.expiries++
			if rec.Terminal {
				u.st = stateFailed
				u.err = rec.Err
			} else {
				u.st = statePending
				st.queue = append(st.queue, rec.Key)
			}
		}
	case "done":
		if u != nil {
			u.st = stateDone
			u.worker = rec.Worker
			u.result = rec.Result
			st.dequeue(rec.Key)
		}
	case "fail":
		if u != nil {
			u.st = stateFailed
			u.worker = rec.Worker
			u.err = rec.Err
			st.dequeue(rec.Key)
		}
	}
}

func (st *recovered) dequeue(key string) {
	for i, k := range st.queue {
		if k == key {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			return
		}
	}
}

// Journal is the coordinator's durable record stream. Methods are not
// safe for concurrent use on their own — the coordinator calls them
// under its mutex.
type Journal struct {
	dir string
	f   *os.File
	w   *bufio.Writer

	pendingSync int
	broken      bool // a failed append poisons the stream; stop writing

	records, bytes, fsyncs uint64 // atomics (telemetry)
}

// JournalStatus is the journal's live counter block (Status, dashboard).
type JournalStatus struct {
	Dir     string
	Records uint64
	Bytes   uint64
	Fsyncs  uint64
}

// Status snapshots the journal counters. Safe to call concurrently with
// appends (counters are atomics).
func (j *Journal) Status() JournalStatus {
	return JournalStatus{
		Dir:     j.dir,
		Records: atomic.LoadUint64(&j.records),
		Bytes:   atomic.LoadUint64(&j.bytes),
		Fsyncs:  atomic.LoadUint64(&j.fsyncs),
	}
}

// openJournal opens (creating if needed) the journal in dir, recovering
// the persisted state by replaying the WAL with its torn tail truncated
// away.
func openJournal(dir string) (*Journal, *recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("sweepd: journal: %w", err)
	}
	// Journals once compacted into state.snap and truncated the WAL
	// behind it; replaying such a WAL alone would silently drop every
	// unit the snapshot held, so refuse it instead.
	if _, err := os.Stat(filepath.Join(dir, legacySnapName)); err == nil {
		return nil, nil, fmt.Errorf("sweepd: journal: %s holds %s from a compacting coordinator and cannot be resumed; start a fresh journal directory", dir, legacySnapName)
	}
	st := &recovered{units: map[string]*journalUnit{}}
	walPath := filepath.Join(dir, walName)
	validLen, err := replayWAL(walPath, st)
	if err != nil {
		return nil, nil, err
	}

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("sweepd: journal: %w", err)
	}
	if validLen == 0 {
		// Fresh (or headerless) WAL: stamp the magic.
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(walMagic), 0)
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("sweepd: journal: %w", err)
		}
		validLen = int64(len(walMagic))
	}
	// Truncate-at-last-valid-record: a torn tail must not corrupt the
	// frames appended after recovery.
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweepd: journal: %w", err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweepd: journal: %w", err)
	}
	return &Journal{dir: dir, f: f, w: bufio.NewWriter(f)}, st, nil
}

// replayWAL applies every valid frame in the WAL to st and reports the
// byte offset after the last valid frame. A missing WAL is an empty one.
func replayWAL(path string, st *recovered) (validLen int64, err error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("sweepd: journal: %w", err)
	}
	if len(b) < len(walMagic) || string(b[:len(walMagic)]) != walMagic {
		if len(b) > 0 {
			slog.Warn("journal WAL has no valid header, starting it over", "path", path, "bytes", len(b))
		}
		return 0, nil
	}
	off := int64(len(walMagic))
	for {
		rec, next, ok := decodeFrame(b, off)
		if !ok {
			if end := int64(len(b)); end != off {
				slog.Warn("journal WAL damaged, truncating", "path", path, "offset", off, "dropped_bytes", end-off)
			}
			return off, nil
		}
		st.apply(rec)
		off = next
	}
}

// decodeFrame parses one [len][crc][payload] frame at off. ok=false on
// any damage — short frame, implausible length, CRC mismatch, bad JSON.
func decodeFrame(b []byte, off int64) (rec journalRecord, next int64, ok bool) {
	if off+8 > int64(len(b)) {
		return rec, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(b[off:]))
	sum := binary.LittleEndian.Uint32(b[off+4:])
	if n <= 0 || n > maxJournalRecord || off+8+n > int64(len(b)) {
		return rec, 0, false
	}
	payload := b[off+8 : off+8+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return rec, 0, false
	}
	if json.Unmarshal(payload, &rec) != nil {
		return rec, 0, false
	}
	return rec, off + 8 + n, true
}

// append frames one record onto the WAL, fsyncing per the group-commit
// policy. A write error poisons the journal (a half-written frame means
// everything after it would be unreadable anyway); the coordinator keeps
// serving, it just stops being crash-safe — loudly.
func (j *Journal) append(rec journalRecord) error {
	if j.broken {
		return fmt.Errorf("sweepd: journal poisoned by an earlier write error")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweepd: journal: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := j.w.Write(hdr[:]); err == nil {
		_, err = j.w.Write(payload)
	}
	if err != nil {
		j.broken = true
		return fmt.Errorf("sweepd: journal: %w", err)
	}
	atomic.AddUint64(&j.records, 1)
	atomic.AddUint64(&j.bytes, uint64(8+len(payload)))
	j.pendingSync++
	if j.pendingSync >= syncEvery {
		return j.sync()
	}
	return nil
}

// sync flushes and fsyncs the WAL (group commit boundary).
func (j *Journal) sync() error {
	if j.broken {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		j.broken = true
		return fmt.Errorf("sweepd: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.broken = true
		return fmt.Errorf("sweepd: journal: %w", err)
	}
	j.pendingSync = 0
	atomic.AddUint64(&j.fsyncs, 1)
	return nil
}

// Close flushes, fsyncs and releases the WAL handle.
func (j *Journal) Close() error {
	err := j.sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sortedUnitKeys returns the recovered unit keys in deterministic order.
func sortedUnitKeys(units map[string]*journalUnit) []string {
	keys := make([]string, 0, len(units))
	for k := range units {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
