package runstore

// End-to-end artifact integrity. Verified wraps any Backend with sha256
// verification on every Get: each entry is stored *sealed* — a fixed
// sealLen-byte header naming the payload's digest ("sha256:<64 hex>\n"),
// then the payload — in one atomic inner Put, so an entry and its
// digest can never disagree because one write landed and the other did
// not. Get checks and strips the seal. A missing, short or mismatched
// seal — bit rot on disk, bytes written around the layer, wire
// corruption below the HTTP layer's own check — is never served: the
// stored bytes are moved to "<kind>-quarantine" (preserved for
// forensics), the entry is deleted, and the Get reports a miss, so the
// caller re-simulates and heals the store exactly like the JSON-decode
// miss path always has.
//
// A Scrub pass walks every entry of a kind through the same
// verify-or-quarantine decision.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"log/slog"
	"sync/atomic"
)

const quarantineKindSuffix = "-quarantine"

// QuarantineKind returns the kind corrupt entries of kind are moved to.
func QuarantineKind(kind string) string { return kind + quarantineKindSuffix }

// Digest is the store's content digest: hex sha256, the same shape as
// the store keys themselves.
func Digest(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// sealPrefix opens every sealed entry; sealLen is the whole header
// (72 bytes).
const (
	sealPrefix = "sha256:"
	sealLen    = len(sealPrefix) + 2*sha256.Size + 1
)

// seal returns data behind its digest header.
func seal(data []byte) []byte {
	h := sha256.Sum256(data)
	out := make([]byte, sealLen+len(data))
	n := copy(out, sealPrefix)
	hex.Encode(out[n:], h[:])
	out[sealLen-1] = '\n'
	copy(out[sealLen:], data)
	return out
}

// unseal returns the payload of a well-formed seal whose digest matches,
// and ok=false for anything else.
func unseal(stored []byte) (payload []byte, ok bool) {
	if len(stored) < sealLen || !bytes.HasPrefix(stored, []byte(sealPrefix)) || stored[sealLen-1] != '\n' {
		return nil, false
	}
	payload = stored[sealLen:]
	h := sha256.Sum256(payload)
	var got [2 * sha256.Size]byte
	hex.Encode(got[:], h[:])
	return payload, bytes.Equal(got[:], stored[len(sealPrefix):sealLen-1])
}

// IntegrityCounters is a point-in-time snapshot of a Verified wrapper's
// counters (exported by the metrics layer as runstore_integrity_* and
// runstore_scrub_*).
type IntegrityCounters struct {
	Verified    uint64 // Gets whose seal matched
	Quarantined uint64 // corrupt entries moved aside and missed

	ScrubScanned     uint64 // entries examined by Scrub passes
	ScrubQuarantined uint64 // corrupt entries Scrub moved aside
}

// Verified decorates a Backend with sealed entries and read-time
// verification. Construct with NewVerified; safe for concurrent use to
// the same degree the inner backend is.
type Verified struct {
	inner Backend
	// Logger receives non-fatal integrity events (quarantines and the
	// deletes they make) at warn. Nil means slog.Default().
	Logger *slog.Logger

	verified, quarantined          atomic.Uint64
	scrubScanned, scrubQuarantined atomic.Uint64
}

// NewVerified wraps inner with digest verification.
func NewVerified(inner Backend) *Verified {
	return &Verified{inner: inner}
}

// Unwrap exposes the inner backend (metrics chain walk, composition
// checks, and the sweep service, which serves the sealed bytes).
func (v *Verified) Unwrap() Backend { return v.inner }

// Counters snapshots the integrity counters.
func (v *Verified) Counters() IntegrityCounters {
	return IntegrityCounters{
		Verified:         v.verified.Load(),
		Quarantined:      v.quarantined.Load(),
		ScrubScanned:     v.scrubScanned.Load(),
		ScrubQuarantined: v.scrubQuarantined.Load(),
	}
}

func (v *Verified) log() *slog.Logger {
	if v.Logger != nil {
		return v.Logger
	}
	return slog.Default()
}

// Get implements Backend: fetch, check and strip the seal,
// quarantine-and-miss on anything else.
func (v *Verified) Get(kind, key string) ([]byte, bool, error) {
	stored, ok, err := v.inner.Get(kind, key)
	if err != nil || !ok {
		return stored, ok, err
	}
	payload, ok := v.verifyFetched(kind, key, stored)
	return payload, ok, nil
}

// verifyFetched runs the verify-or-quarantine decision on bytes already
// fetched for (kind, key), updating the counters.
func (v *Verified) verifyFetched(kind, key string, stored []byte) ([]byte, bool) {
	if payload, ok := unseal(stored); ok {
		v.verified.Add(1)
		return payload, true
	}
	v.quarantine(kind, key, stored)
	return nil, false
}

// quarantine moves a corrupt entry aside and deletes it, so the next
// Get is a clean miss and the next Put heals.
func (v *Verified) quarantine(kind, key string, stored []byte) {
	v.quarantined.Add(1)
	if err := v.inner.Put(QuarantineKind(kind), key, stored, true); err != nil {
		v.log().Warn("quarantine copy failed", "kind", kind, "key", key, "err", err)
	}
	if err := v.inner.Delete(kind, key); err != nil {
		v.log().Warn("deleting corrupt entry failed", "kind", kind, "key", key, "err", err)
	}
	v.log().Warn("quarantined corrupt entry (missing or mismatched seal), treating as a miss",
		"kind", kind, "key", key, "bytes", len(stored))
}

// Put implements Backend: the sealed bytes in one inner Put. Identical
// payloads seal identically, so idempotence and ErrDiffers carry over.
func (v *Verified) Put(kind, key string, data []byte, replace bool) error {
	return v.inner.Put(kind, key, seal(data), replace)
}

// Stat implements Backend. Sizes are stored bytes, seal included.
func (v *Verified) Stat(kind, key string) (Info, bool, error) { return v.inner.Stat(kind, key) }

// Keys implements Backend. Sizes are stored bytes, seal included.
func (v *Verified) Keys(kind string) ([]Info, error) { return v.inner.Keys(kind) }

// Delete implements Backend.
func (v *Verified) Delete(kind, key string) error { return v.inner.Delete(kind, key) }

// ScrubKindStats is one kind's outcome from a Scrub pass.
type ScrubKindStats struct {
	Scanned     int   // entries examined
	OK          int   // seal matched
	Quarantined int   // seal missing or mismatched; entry moved aside
	Errors      int   // entries whose bytes could not be read
	Bytes       int64 // total stored bytes of scanned entries
}

// ScrubStats aggregates a Scrub pass per kind.
type ScrubStats struct {
	Kinds map[string]ScrubKindStats
}

// Scrub walks every entry of the given kinds through the same
// verify-or-quarantine decision Get applies lazily, returning per-kind
// outcome counts. Run it periodically on long-lived shared stores
// (experiments -store-scrub) to surface bit rot before a sweep trips
// over it; a quarantined entry is simply re-simulated on next use.
func (v *Verified) Scrub(kinds ...string) (ScrubStats, error) {
	st := ScrubStats{Kinds: map[string]ScrubKindStats{}}
	for _, kind := range kinds {
		ks := ScrubKindStats{}
		infos, err := v.inner.Keys(kind)
		if err != nil {
			return st, err
		}
		for _, info := range infos {
			ks.Scanned++
			v.scrubScanned.Add(1)
			stored, ok, err := v.inner.Get(kind, info.Key)
			if err != nil {
				ks.Errors++
				v.log().Warn("scrub: unreadable entry", "kind", kind, "key", info.Key, "err", err)
				continue
			}
			if !ok {
				continue // raced with a concurrent delete
			}
			ks.Bytes += int64(len(stored))
			if _, ok := v.verifyFetched(kind, info.Key, stored); ok {
				ks.OK++
			} else {
				ks.Quarantined++
				v.scrubQuarantined.Add(1)
			}
		}
		st.Kinds[kind] = ks
	}
	return st, nil
}

// FindVerified walks a backend composition (Unwrap chain) and returns
// the first Verified layer, or nil.
func FindVerified(b Backend) *Verified {
	for b != nil {
		if v, ok := b.(*Verified); ok {
			return v
		}
		u, ok := b.(interface{ Unwrap() Backend })
		if !ok {
			return nil
		}
		b = u.Unwrap()
	}
	return nil
}
