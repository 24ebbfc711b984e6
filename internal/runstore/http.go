package runstore

// The HTTP blob protocol: a Backend served over four verbs, so a fleet
// of workers shares one coordinator-side store with exact dedup.
//
//	GET    /{kind}/{key}   200 body | 404
//	PUT    /{kind}/{key}   204 | 409 (ErrDiffers) | 400 | 500
//	HEAD   /{kind}/{key}   200 (Content-Length, Last-Modified) | 404
//	GET    /{kind}         200 JSON []Info (key-sorted listing)
//	DELETE /{kind}/{key}   204 (idempotent)
//
// A PUT with the X-Runstore-Replace: 1 header overwrites a differing
// entry (the caller-decided debris-replacement path); without it the
// server refuses differing bytes with 409 Conflict, carrying the
// collision semantics across the wire unchanged. Atomicity rides on the
// server's inner backend: the server buffers the full body (bounded by
// http.MaxBytesReader; an oversized body is refused with 413) before
// calling Put, so a slow or dying client never exposes partial bytes.
//
// Integrity crosses the wire in both directions via X-Runstore-Digest
// (hex sha256 of the body): the server stamps it on every GET and the
// client refuses a body that hashes differently; the client stamps it
// on every PUT and the server refuses (400) before touching the
// backend. Either refusal marks the transfer corrupt, and since every
// blob operation is idempotent, the client retries transient failures —
// transport errors, 5xx, truncations, digest mismatches — a bounded
// number of times before reporting the error.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

const (
	replaceHeader = "X-Runstore-Replace"
	digestHeader  = "X-Runstore-Digest"
	// maxBlobBytes bounds one stored entry: a 16 MiB payload (the sweep
	// protocol's own request cap) plus its seal. Results are KBs; the cap
	// is a generous ceiling that still stops a hostile client from
	// ballooning the server's memory.
	maxBlobBytes = 16<<20 + int64(sealLen)
	// maxDrainBytes bounds how much of an unwanted response body (a 404
	// page, an error message) is read off the wire so its keep-alive
	// connection goes back to the pool instead of being torn down.
	maxDrainBytes = 4096

	// clientAttempts bounds retries of one blob operation. Every verb is
	// idempotent (PUT's collision refusal is stable), so replaying a
	// request that died to a flaky network or a mid-restart coordinator
	// is always safe.
	clientAttempts = 3
	clientBackoff  = 25 * time.Millisecond
)

// Client is the HTTP Backend: every method is one round trip to a
// server created with NewServer (usually the sweep coordinator).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient creates a client for the blob server at base (e.g.
// "http://coordinator:6060/store"). The transport has no global
// timeout, but dials and TLS handshakes use http.DefaultTransport's
// usual limits.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

func (c *Client) url(kind, key string) string {
	if key == "" {
		return c.base + "/" + kind
	}
	return c.base + "/" + kind + "/" + key
}

// errTransient marks a failure worth replaying: the operation may well
// succeed against a healthy connection (or a restarted coordinator).
var errTransient = errors.New("runstore: transient")

func transient(err error) error { return fmt.Errorf("%w: %w", errTransient, err) }

// drainClose discards what is left of an unwanted response body (up to
// maxDrainBytes) before closing it, so the client reuses the connection.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, maxDrainBytes))
	body.Close()
}

// retry replays op while it fails transiently, with a short linear
// backoff, and returns the last error.
func retry(op func() error) error {
	var err error
	for attempt := 0; attempt < clientAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(clientBackoff * time.Duration(attempt))
		}
		if err = op(); !errors.Is(err, errTransient) {
			return err
		}
	}
	return err
}

// Get implements Backend.
func (c *Client) Get(kind, key string) ([]byte, bool, error) {
	if err := checkNames(kind, key); err != nil {
		return nil, false, err
	}
	var body []byte
	var found bool
	err := retry(func() error {
		body, found = nil, false
		resp, err := c.hc.Get(c.url(kind, key))
		if err != nil {
			return transient(err)
		}
		defer drainClose(resp.Body)
		switch resp.StatusCode {
		case http.StatusOK:
			b, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes))
			if err != nil {
				return transient(err) // truncated mid-body
			}
			if want := resp.Header.Get(digestHeader); want != "" && want != Digest(b) {
				return transient(fmt.Errorf("GET %s/%s: body hashes to %s, server said %s (wire corruption)",
					kind, key, short(Digest(b)), short(want)))
			}
			body, found = b, true
			return nil
		case http.StatusNotFound:
			return nil
		}
		if resp.StatusCode >= 500 {
			return transient(fmt.Errorf("GET %s/%s: %s", kind, key, resp.Status))
		}
		return fmt.Errorf("runstore: GET %s/%s: %s", kind, key, resp.Status)
	})
	if err != nil {
		return nil, false, fmt.Errorf("runstore: %w", err)
	}
	return body, found, nil
}

// Put implements Backend.
func (c *Client) Put(kind, key string, data []byte, replace bool) error {
	if err := checkNames(kind, key); err != nil {
		return err
	}
	digest := Digest(data)
	return retry(func() error {
		req, err := http.NewRequest(http.MethodPut, c.url(kind, key), bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("runstore: %w", err)
		}
		if replace {
			req.Header.Set(replaceHeader, "1")
		}
		req.Header.Set(digestHeader, digest)
		resp, err := c.hc.Do(req)
		if err != nil {
			return transient(err)
		}
		defer drainClose(resp.Body)
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxDrainBytes))
		switch {
		case resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusOK:
			return nil
		case resp.StatusCode == http.StatusConflict:
			return fmt.Errorf("%w: key %s", ErrDiffers, key)
		case resp.StatusCode == http.StatusBadRequest && bytes.Contains(msg, []byte("digest")):
			// The server saw bytes that hash differently than we sent:
			// the request body was corrupted in flight. Replay it.
			return transient(fmt.Errorf("PUT %s/%s: %s: %s", kind, key, resp.Status, msg))
		case resp.StatusCode >= 500:
			return transient(fmt.Errorf("PUT %s/%s: %s", kind, key, resp.Status))
		}
		return fmt.Errorf("runstore: PUT %s/%s: %s", kind, key, resp.Status)
	})
}

// Stat implements Backend.
func (c *Client) Stat(kind, key string) (Info, bool, error) {
	if err := checkNames(kind, key); err != nil {
		return Info{}, false, err
	}
	var info Info
	var found bool
	err := retry(func() error {
		info, found = Info{}, false
		resp, err := c.hc.Head(c.url(kind, key))
		if err != nil {
			return transient(err)
		}
		defer drainClose(resp.Body)
		switch resp.StatusCode {
		case http.StatusOK:
			info = Info{Key: key, Size: resp.ContentLength}
			if t, err := http.ParseTime(resp.Header.Get("Last-Modified")); err == nil {
				info.ModTime = t
			}
			found = true
			return nil
		case http.StatusNotFound:
			return nil
		}
		if resp.StatusCode >= 500 {
			return transient(fmt.Errorf("HEAD %s/%s: %s", kind, key, resp.Status))
		}
		return fmt.Errorf("runstore: HEAD %s/%s: %s", kind, key, resp.Status)
	})
	if err != nil {
		return Info{}, false, fmt.Errorf("runstore: %w", err)
	}
	return info, found, nil
}

// Keys implements Backend.
func (c *Client) Keys(kind string) ([]Info, error) {
	if !ValidName(kind) {
		return nil, fmt.Errorf("runstore: invalid kind %q", kind)
	}
	var infos []Info
	err := retry(func() error {
		infos = nil
		resp, err := c.hc.Get(c.url(kind, ""))
		if err != nil {
			return transient(err)
		}
		defer drainClose(resp.Body)
		if resp.StatusCode >= 500 {
			return transient(fmt.Errorf("LIST %s: %s", kind, resp.Status))
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("runstore: LIST %s: %s", kind, resp.Status)
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxBlobBytes)).Decode(&infos); err != nil {
			return transient(err) // truncated or garbled listing
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return infos, nil
}

// Delete implements Backend.
func (c *Client) Delete(kind, key string) error {
	if err := checkNames(kind, key); err != nil {
		return err
	}
	return retry(func() error {
		req, err := http.NewRequest(http.MethodDelete, c.url(kind, key), nil)
		if err != nil {
			return fmt.Errorf("runstore: %w", err)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return transient(err)
		}
		defer drainClose(resp.Body)
		switch resp.StatusCode {
		case http.StatusNoContent, http.StatusOK, http.StatusNotFound:
			return nil
		}
		if resp.StatusCode >= 500 {
			return transient(fmt.Errorf("DELETE %s/%s: %s", kind, key, resp.Status))
		}
		return fmt.Errorf("runstore: DELETE %s/%s: %s", kind, key, resp.Status)
	})
}

// server serves the blob protocol over an inner Backend.
type server struct {
	b Backend
}

// NewServer returns an http.Handler exposing b over the blob protocol.
// A PUT whose body exceeds the maxBlobBytes per-entry cap is refused
// with 413 before the backend sees it (http.MaxBytesReader, so the
// connection is also throttled shut instead of draining an arbitrarily
// large upload). Mount it under a prefix with http.StripPrefix; paths
// are /{kind}/{key} relative to that prefix.
func NewServer(b Backend) http.Handler { return &server{b: b} }

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind, key, ok := splitBlobPath(r.URL.Path)
	if !ok {
		http.Error(w, "bad path", http.StatusBadRequest)
		return
	}
	if key == "" {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.list(w, kind)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		s.get(w, r, kind, key)
	case http.MethodPut:
		s.put(w, r, kind, key)
	case http.MethodDelete:
		if err := s.b.Delete(kind, key); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// splitBlobPath parses "/{kind}" or "/{kind}/{key}" with strict names.
func splitBlobPath(p string) (kind, key string, ok bool) {
	p = strings.TrimPrefix(p, "/")
	kind, key, _ = strings.Cut(p, "/")
	if !ValidName(kind) || (key != "" && !ValidName(key)) {
		return "", "", false
	}
	return kind, key, true
}

func (s *server) list(w http.ResponseWriter, kind string) {
	infos, err := s.b.Keys(kind)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if infos == nil {
		infos = []Info{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(infos)
}

func (s *server) get(w http.ResponseWriter, r *http.Request, kind, key string) {
	// HEAD uses Stat (no body fetch); GET fetches once.
	if r.Method == http.MethodHead {
		info, ok, err := s.b.Stat(kind, key)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
		if !info.ModTime.IsZero() {
			w.Header().Set("Last-Modified", info.ModTime.UTC().Format(http.TimeFormat))
		}
		w.WriteHeader(http.StatusOK)
		return
	}
	data, ok, err := s.b.Get(kind, key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if !ok {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(int64(len(data)), 10))
	w.Header().Set(digestHeader, Digest(data))
	w.Write(data)
}

func (s *server) put(w http.ResponseWriter, r *http.Request, kind, key string) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("entry exceeds the %d-byte cap", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if want := r.Header.Get(digestHeader); want != "" && want != Digest(data) {
		// The body does not hash to what the client sent: corrupted in
		// flight. Refuse before the backend sees it; the client replays.
		http.Error(w, fmt.Sprintf("body digest mismatch: got %s, header said %s", short(Digest(data)), short(want)), http.StatusBadRequest)
		return
	}
	replace := r.Header.Get(replaceHeader) == "1"
	if err := s.b.Put(kind, key, data, replace); err != nil {
		if isDiffers(err) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// short abbreviates a digest for error messages.
func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// isDiffers matches ErrDiffers through wrapping, plus a string fallback
// so a server whose inner backend is itself a Client (a relay, where the
// sentinel arrived as 409 text) still maps the refusal correctly.
func isDiffers(err error) bool {
	return err != nil &&
		(errors.Is(err, ErrDiffers) || strings.Contains(err.Error(), ErrDiffers.Error()))
}
