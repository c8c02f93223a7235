package trace

import "repro/internal/obs"

// The trace subsystem's process-global counters live on the default
// obs registry, so any metrics snapshot of the process includes them.
// Hot callers go through these pre-resolved pointers, never through a
// registry lookup.
var (
	cacheHits    = obs.Default().Counter("trace.cache.hits")
	cacheMisses  = obs.Default().Counter("trace.cache.misses")
	cacheStores  = obs.Default().Counter("trace.cache.stores")
	cacheCorrupt = obs.Default().Counter("trace.cache.corrupt")
	recordings   = obs.Default().Counter("trace.recordings")
)

// CacheHits returns the number of traces served from the disk cache in
// this process.
func CacheHits() uint64 { return cacheHits.Load() }

// Recordings returns the number of completed Record calls in this
// process.
func Recordings() uint64 { return recordings.Load() }

// Counters is a point-in-time copy of the trace subsystem's
// process-global counters. Tests that assert on cache behaviour take
// one before the action and diff after with Since, instead of
// hand-diffing raw globals that other packages' tests also move.
type Counters struct {
	CacheHits   uint64
	CacheMisses uint64
	CacheStores uint64
	// CacheCorrupt counts cache files that existed but failed to
	// decode (ErrCorrupt). Load returns them as (nil, nil), like a
	// miss, and the caller records the trace again.
	CacheCorrupt uint64
	Recordings   uint64
}

// SnapshotCounters reads the current values of all trace counters.
func SnapshotCounters() Counters {
	return Counters{
		CacheHits:    cacheHits.Load(),
		CacheMisses:  cacheMisses.Load(),
		CacheStores:  cacheStores.Load(),
		CacheCorrupt: cacheCorrupt.Load(),
		Recordings:   recordings.Load(),
	}
}

// Since returns the counter movement from start (an earlier snapshot)
// to c. Counters are monotone, so each field is a plain difference.
func (c Counters) Since(start Counters) Counters {
	return Counters{
		CacheHits:    c.CacheHits - start.CacheHits,
		CacheMisses:  c.CacheMisses - start.CacheMisses,
		CacheStores:  c.CacheStores - start.CacheStores,
		CacheCorrupt: c.CacheCorrupt - start.CacheCorrupt,
		Recordings:   c.Recordings - start.Recordings,
	}
}
