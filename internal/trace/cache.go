package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The trace cache is content-addressed and advisory: a Load miss
// (missing, unreadable or corrupt file) is never load-bearing — the
// caller records the trace again — and Store failures are safe to
// ignore.

// EnvDir is the environment variable overriding the default on-disk
// trace cache directory.
const EnvDir = "PREDSIM_TRACE_DIR"

// DefaultDir returns the trace cache directory: $PREDSIM_TRACE_DIR,
// else <user cache dir>/predsim/traces, else a temp-dir fallback. The
// directory is not created until Store needs it. The temp-dir fallback
// is suffixed with the UID: the temp dir is typically shared across
// users on multi-user hosts, and an unsuffixed path would let one
// user's cache (created 0700, see Store) block every other user's
// Store calls.
func DefaultDir() string {
	if d := os.Getenv(EnvDir); d != "" {
		return d
	}
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "predsim", "traces")
	}
	return filepath.Join(os.TempDir(), fmt.Sprintf("predsim-traces-%d", os.Getuid()))
}

// Key derives a stable cache key from its parts (benchmark spec,
// profile budget, binary variant, program hash — the caller decides).
// The trace format magic participates, so a format version bump
// invalidates every cached trace; any part changing changes the key.
func Key(parts ...string) string {
	return cacheKey(magic, parts...)
}

func cacheKey(magic string, parts ...string) string {
	h := sha256.Sum256([]byte(magic + "\x00" + strings.Join(parts, "\x00")))
	return hex.EncodeToString(h[:16])
}

func cachePath(dir, key string) string {
	return filepath.Join(dir, key+".pptrace")
}

// Load reads a cached trace. A missing, unreadable or corrupt file is
// a cache miss (nil, nil): the cache is advisory, never load-bearing.
// Hits and misses count on the trace.cache.hits / trace.cache.misses
// counters (misses paired with hits prove record-once behaviour: a
// repeated sweep or experiment should re-record nothing, only hit); a
// file that exists but fails to decode counts on trace.cache.corrupt
// instead of trace.cache.misses.
func Load(dir, key string) (*Trace, error) {
	f, err := os.Open(cachePath(dir, key))
	if err != nil {
		cacheMisses.Inc()
		return nil, nil
	}
	defer f.Close()
	t, err := Decode(f)
	if err != nil {
		cacheCorrupt.Inc()
		return nil, nil
	}
	cacheHits.Inc()
	return t, nil
}

// Store writes a trace into the cache atomically (see writeAtomic), so
// concurrent writers and readers never see a torn file.
func Store(dir, key string, t *Trace) error {
	if err := writeAtomic(dir, key, t.EncodeTo); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	cacheStores.Inc()
	return nil
}

// writeAtomic writes one cache entry through a temp file renamed into
// place. Cache directories are created private (0700): cache contents
// reveal which workloads a user runs, and nothing but this process
// needs to read them. write receives the temp file and must emit the
// complete entry; on any failure the temp file is removed and no entry
// appears.
func writeAtomic(dir, key string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("cache temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cache close: %w", err)
	}
	if err := os.Rename(tmp.Name(), cachePath(dir, key)); err != nil {
		return fmt.Errorf("cache rename: %w", err)
	}
	return nil
}
