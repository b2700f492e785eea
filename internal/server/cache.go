package server

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Compiled is one cached artifact: a fully compiled and analyzed program
// plus its synthesized placement. Both halves are
// read-only at execution time, so a single Compiled may back any number
// of concurrent Exec calls.
type Compiled struct {
	Key  string
	Sys  *core.System
	Prep *core.Prepared
	// cost is the entry's charge against the cache byte bound (the source
	// length is the proxy: compiled IR size tracks source size).
	cost int64
}

// CompileRequest identifies one cacheable compilation+preparation.
type CompileRequest struct {
	Source string
	Prep   core.PrepareConfig
}

// Key returns the request's content address.
func (r CompileRequest) Key() string {
	return core.PrepareFingerprint(r.Source, r.Prep)
}

// ProgramCache is a content-addressed LRU cache of compiled programs with
// singleflight compilation: concurrent misses on one key compile exactly
// once, and every waiter shares the result. Entries are bounded both by
// count and by total source bytes; eviction is strict LRU. Hits, misses,
// and evictions are counted for /varz.
type ProgramCache struct {
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	lru     *list.List // front = most recently used; values are *Compiled
	entries map[string]*list.Element
	bytes   int64
	flights map[string]*flight

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// flight is one in-progress compilation shared by concurrent requesters.
type flight struct {
	done chan struct{}
	res  *Compiled
	err  error
}

// NewProgramCache returns a cache bounded to maxEntries entries and
// maxBytes total source bytes (either may be 0 for "unbounded" on that
// axis, but at least one bound should be set in production).
func NewProgramCache(maxEntries int, maxBytes int64) *ProgramCache {
	return &ProgramCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		lru:        list.New(),
		entries:    map[string]*list.Element{},
		flights:    map[string]*flight{},
	}
}

// GetOrCompile returns the compiled program for req, compiling and
// preparing it on a miss. The boolean reports whether the call was served
// from cache. Concurrent callers with the same key share one compilation;
// errors are returned to every waiter but never cached, so a later retry
// recompiles. ctx cancels this caller's wait (and, for the caller that
// runs the compilation, the synthesis itself).
func (c *ProgramCache) GetOrCompile(ctx context.Context, req CompileRequest) (*Compiled, bool, error) {
	key := req.Key()
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*Compiled), true, nil
	}
	if f, ok := c.flights[key]; ok {
		// Someone else is compiling this key: wait for them. Their result
		// counts as a hit for us — the front-end ran once, not twice.
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err != nil {
			return nil, false, f.err
		}
		c.hits.Add(1)
		return f.res, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	c.misses.Add(1)
	f.res, f.err = c.compile(ctx, key, req)
	close(f.done)

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.insertLocked(f.res)
	}
	c.mu.Unlock()
	return f.res, false, f.err
}

// compile runs the front half of the pipeline: parse/check/lower/analyze
// and layout preparation (profile + synthesis
// for multicore targets).
func (c *ProgramCache) compile(ctx context.Context, key string, req CompileRequest) (*Compiled, error) {
	sys, err := core.CompileSource(req.Source)
	if err != nil {
		return nil, err
	}
	prep, err := sys.Prepare(ctx, req.Prep)
	if err != nil {
		return nil, err
	}
	return &Compiled{Key: key, Sys: sys, Prep: prep, cost: int64(len(req.Source))}, nil
}

// insertLocked adds the entry at the LRU front and evicts from the back
// until both bounds hold again. The entry just inserted is never evicted:
// a program larger than the whole budget still has to be usable once.
func (c *ProgramCache) insertLocked(e *Compiled) {
	if el, ok := c.entries[e.Key]; ok {
		// A racing compile of the same key landed first; keep the old one.
		c.lru.MoveToFront(el)
		return
	}
	c.entries[e.Key] = c.lru.PushFront(e)
	c.bytes += e.cost
	for c.lru.Len() > 1 &&
		((c.maxEntries > 0 && c.lru.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		back := c.lru.Back()
		victim := back.Value.(*Compiled)
		c.lru.Remove(back)
		delete(c.entries, victim.Key)
		c.bytes -= victim.cost
		c.evictions.Add(1)
	}
}

// Peek reports whether key is resident without touching LRU order or the
// hit/miss counters (tests and diagnostics).
func (c *ProgramCache) Peek(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// CacheStats is the /varz view of the cache.
type CacheStats struct {
	Entries    int     `json:"entries"`
	Bytes      int64   `json:"bytes"`
	MaxEntries int     `json:"max_entries"`
	MaxBytes   int64   `json:"max_bytes"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	Evictions  int64   `json:"evictions"`
	HitRate    float64 `json:"hit_rate"`
}

// Stats snapshots the counters.
func (c *ProgramCache) Stats() CacheStats {
	c.mu.Lock()
	entries, bytes := c.lru.Len(), c.bytes
	c.mu.Unlock()
	s := CacheStats{
		Entries:    entries,
		Bytes:      bytes,
		MaxEntries: c.maxEntries,
		MaxBytes:   c.maxBytes,
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
	}
	if lookups := s.Hits + s.Misses; lookups > 0 {
		s.HitRate = float64(s.Hits) / float64(lookups)
	}
	return s
}
