package tracefile

// Fuzz target for the trace-file decoder, mirroring the snapshot
// container's FuzzReader: Read must reject any damaged input with a
// clean error — never panic, never hang, never over-allocate — because
// cmd/experiments feeds it whatever file the user points at.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"hash/crc64"
	"io"
	"strings"
	"testing"

	"tinydir/internal/trace"
)

// gz compresses a payload into the container framing the decoder expects.
func gz(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// gunzip recovers the uncompressed payload of a written file.
func gunzip(t *testing.T, raw []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// fuzzSeed is a small valid trace file: two cores, all three kinds,
// negative address deltas, carried stats.
func fuzzSeed() []byte {
	f := &File{
		Name:  "fuzz-seed",
		Stats: map[string]uint64{"trace.fsRefs": 7, "trace.fsStores": 3},
		Traces: [][]trace.Ref{
			{
				{Addr: 100, Kind: trace.Load, Gap: 1},
				{Addr: 5, Kind: trace.Store, Gap: 200},
				{Addr: 1 << 40, Kind: trace.Ifetch, Gap: 0},
			},
			{
				{Addr: 42, Kind: trace.Store, Gap: 9},
			},
		},
	}
	var buf bytes.Buffer
	if _, err := Write(&buf, f); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// wrapSeed hand-crafts a container whose second record's address delta
// (-10 against a running address of 5) underflows uint64 — every frame
// checksum is valid, so the input reaches the delta decoder and only the
// wraparound check can reject it. The writer refuses to produce such a
// file, which is why it is assembled from the raw format here.
func wrapSeed() []byte {
	var hdr bytes.Buffer
	hdr.WriteString(magic)
	le(&hdr, uint32(FormatVersion))
	uv(&hdr, uint64(len("wrap")))
	hdr.WriteString("wrap")
	le(&hdr, uint32(1)) // one core
	le(&hdr, uint32(0)) // no stats
	le(&hdr, crc32.ChecksumIEEE(hdr.Bytes()))

	var body bytes.Buffer
	uv(&body, 2) // two records
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], 5) // addr 0 -> 5
	body.Write(tmp[:n])
	body.WriteByte(0)                 // kind
	body.WriteByte(0)                 // gap
	n = binary.PutVarint(tmp[:], -10) // addr 5 - 10: wraps below zero
	body.Write(tmp[:n])
	body.WriteByte(0)
	body.WriteByte(0)

	trailer := make([]byte, 8)
	binary.LittleEndian.PutUint64(trailer, crc64.Checksum(body.Bytes(), crc64Table))

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(hdr.Bytes())
	zw.Write(body.Bytes())
	zw.Write(trailer)
	zw.Close()
	return buf.Bytes()
}

// FuzzTraceReader throws arbitrary bytes at Read. The only acceptable
// outcomes are a decoded file or a clean error; the corpus seeds cover
// the interesting corruption classes (bit flips at every 7th offset of
// both the compressed stream and the recompressed payload, truncations,
// wrong container, address-delta wraparound).
func FuzzTraceReader(f *testing.F) {
	seed := fuzzSeed()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(seed[:len(seed)-9])
	f.Add(wrapSeed())
	for i := 0; i < len(seed); i += 7 {
		flipped := append([]byte(nil), seed...)
		flipped[i] ^= 0x40
		f.Add(flipped)
	}
	// Payload-layer flips survive gzip's own CRC only if re-wrapped, so
	// add them pre-wrapped: these reach the format's checksum logic.
	var payload bytes.Buffer
	zr, err := gzip.NewReader(bytes.NewReader(seed))
	if err == nil {
		if _, err := io.Copy(&payload, zr); err == nil {
			for i := 0; i < payload.Len(); i += 7 {
				flipped := append([]byte(nil), payload.Bytes()...)
				flipped[i] ^= 0x40
				var rewrapped bytes.Buffer
				zw := gzip.NewWriter(&rewrapped)
				zw.Write(flipped)
				zw.Close()
				f.Add(rewrapped.Bytes())
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		// Accepted inputs must be internally consistent: a digest, a
		// bounded core count, and re-encodable.
		if tf.Digest == "" {
			t.Fatal("accepted file has no digest")
		}
		if tf.Cores() == 0 || tf.Cores() > maxCores {
			t.Fatalf("accepted file has %d cores", tf.Cores())
		}
		if _, err := Write(io.Discard, tf); err != nil {
			t.Fatalf("accepted file fails to re-encode: %v", err)
		}
	})
}

// TestWrapDeltaRejected pins the wraparound fix: before it, the crafted
// stream decoded "successfully" with record 1 aliased to block address
// 2^64-5, silently colliding with whatever legitimately maps there.
func TestWrapDeltaRejected(t *testing.T) {
	_, err := Read(bytes.NewReader(wrapSeed()))
	if err == nil {
		t.Fatal("wrapping address delta decoded without error")
	}
	if !strings.Contains(err.Error(), "wraps uint64") {
		t.Fatalf("unexpected error for wrapping delta: %v", err)
	}
}

// TestWriterRejectsWrappingJump pins the writer-side mirror: an address
// jump of 2^63 or more cannot be represented as a signed delta and must
// fail at Write time, not produce a file the reader rejects.
func TestWriterRejectsWrappingJump(t *testing.T) {
	f := &File{
		Name:   "jump",
		Traces: [][]trace.Ref{{{Addr: 1 << 63, Kind: trace.Load}}},
	}
	if _, err := Write(io.Discard, f); err == nil {
		t.Fatal("writer accepted an un-encodable address jump")
	}
}

// TestFuzzSeedRoundTrips pins the corpus seed itself.
func TestFuzzSeedRoundTrips(t *testing.T) {
	tf, err := Read(bytes.NewReader(fuzzSeed()))
	if err != nil {
		t.Fatal(err)
	}
	if tf.Name != "fuzz-seed" || tf.Cores() != 2 || tf.Stats["trace.fsRefs"] != 7 {
		t.Fatalf("seed decoded wrong: %+v", tf)
	}
	if tf.Traces[0][1].Addr != 5 || tf.Traces[0][1].Kind != trace.Store {
		t.Fatalf("seed records decoded wrong: %+v", tf.Traces[0])
	}
}
