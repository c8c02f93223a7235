package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestDefaultDirFallbackIsPerUser(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("unix-style cache-dir resolution")
	}
	// With no env override and no resolvable user cache dir, the
	// fallback must land in a per-UID temp directory, not a path shared
	// by every user of the host.
	t.Setenv(EnvDir, "")
	t.Setenv("XDG_CACHE_HOME", "")
	t.Setenv("HOME", "")
	d := DefaultDir()
	want := fmt.Sprintf("predsim-traces-%d", os.Getuid())
	if filepath.Base(d) != want {
		t.Errorf("fallback dir = %q, want basename %q", d, want)
	}
}

func TestDefaultDirEnvOverride(t *testing.T) {
	t.Setenv(EnvDir, "/some/where")
	if d := DefaultDir(); d != "/some/where" {
		t.Errorf("DefaultDir = %q with %s set", d, EnvDir)
	}
}

func TestStoreCreatesPrivateDir(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("unix permission bits")
	}
	dir := filepath.Join(t.TempDir(), "cache", "traces")
	if err := Store(dir, Key("perm-test"), &Trace{Name: "t"}); err != nil {
		t.Fatal(err)
	}
	for p := dir; len(p) > len(t.TempDir()); p = filepath.Dir(p) {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != 0o700 {
			t.Errorf("%s created with mode %o, want 0700", p, got)
		}
	}
	if _, err := Load(dir, Key("perm-test")); err != nil {
		t.Fatalf("round-trip load: %v", err)
	}
}

// TestDefaultDirPrecedence pins the resolution order: env override
// first, then the user cache dir, then the per-UID temp fallback.
func TestDefaultDirPrecedence(t *testing.T) {
	t.Setenv(EnvDir, "/explicit/override")
	if d := DefaultDir(); d != "/explicit/override" {
		t.Fatalf("env override ignored: %q", d)
	}
	t.Setenv(EnvDir, "")
	d := DefaultDir()
	if ucd, err := os.UserCacheDir(); err == nil {
		want := filepath.Join(ucd, "predsim", "traces")
		if d != want {
			t.Fatalf("user-cache default = %q, want %q", d, want)
		}
	} else {
		want := filepath.Join(os.TempDir(), fmt.Sprintf("predsim-traces-%d", os.Getuid()))
		if d != want {
			t.Fatalf("temp fallback = %q, want %q", d, want)
		}
	}
}

// TestKeyStability pins key properties: deterministic, magic- and
// part-sensitive, and resistant to part-boundary shifts (the "ab","c"
// vs "a","bc" collision a plain concatenation would allow).
func TestKeyStability(t *testing.T) {
	k := cacheKey("MAGIC1", "a", "b")
	if k != cacheKey("MAGIC1", "a", "b") {
		t.Fatal("key is not deterministic")
	}
	if len(k) != 32 || strings.ToLower(k) != k {
		t.Fatalf("key %q is not 32 lowercase hex chars", k)
	}
	distinct := map[string]bool{
		k:                            true,
		cacheKey("MAGIC2", "a", "b"): true,
		cacheKey("MAGIC1", "a", "c"): true,
		cacheKey("MAGIC1", "ab"):     true,
		cacheKey("MAGIC1", "a", ""):  true,
	}
	if len(distinct) != 5 {
		t.Fatalf("key collisions across magic/part variations: %v", distinct)
	}
	if Key("a", "b") != cacheKey(magic, "a", "b") {
		t.Fatal("Key does not derive from the trace format magic")
	}
}

// TestStoreRoundTrip covers the atomic write path: the entry lands
// under a 0700 directory, the temp file is gone, and the trace
// round-trips through Load.
func TestStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tier")
	key := Key("entry")
	want := &Trace{Name: "round-trip", Steps: 3, Events: []byte{1, 2, 3}}
	if err := Store(dir, key, want); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o700 {
		t.Errorf("cache dir mode = %o, want 700", perm)
	}
	got, err := Load(dir, key)
	if err != nil || got == nil {
		t.Fatalf("Load = %v, %v", got, err)
	}
	if got.Name != want.Name || got.Steps != want.Steps || string(got.Events) != string(want.Events) {
		t.Errorf("round-trip mismatch: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

// TestStoreWriteFailureLeavesNoEntry proves a failed write never
// replaces (or creates) the cache entry and cleans up its temp file.
func TestStoreWriteFailureLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	key := Key("entry")
	boom := fmt.Errorf("write exploded")
	err := writeAtomic(dir, key, func(io.Writer) error { return boom })
	if err == nil || !strings.Contains(err.Error(), "write exploded") {
		t.Fatalf("want wrapped write error, got %v", err)
	}
	if _, err := os.Stat(cachePath(dir, key)); !os.IsNotExist(err) {
		t.Error("failed store left a cache entry behind")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("failed store left files behind: %v", entries)
	}
}

// TestLoadCountsCorruptFile proves a cache file that fails to decode
// is a miss to the caller, counted on trace.cache.corrupt and not on
// trace.cache.misses.
func TestLoadCountsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	key := Key("corrupt")
	if err := os.WriteFile(cachePath(dir, key), craftedTrace(0, 1<<62), 0o600); err != nil {
		t.Fatal(err)
	}
	before := SnapshotCounters()
	got, err := Load(dir, key)
	if got != nil || err != nil {
		t.Fatalf("Load of a corrupt file = %v, %v; want nil, nil", got, err)
	}
	d := SnapshotCounters().Since(before)
	if d.CacheCorrupt != 1 || d.CacheMisses != 0 || d.CacheHits != 0 {
		t.Errorf("counter movement %+v, want exactly one corrupt", d)
	}
}
