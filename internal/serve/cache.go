package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"lotustc/internal/compress"
	"lotustc/internal/faults"
	"lotustc/internal/graph"
	"lotustc/internal/obs"
)

// lru is a byte-budgeted LRU over opaque values. It is not safe for
// concurrent use; buildCache serializes access under its own lock.
type lru struct {
	max   int64
	bytes int64
	ll    *list.List
	items map[string]*list.Element
	// onEvict, when set, observes every budget-pressure eviction from
	// the cold end (the demotion hook of the two-tier cache). It is
	// NOT called for explicit remove() or for a stale entry displaced
	// by an oversized replacement — those are removals, not demotions.
	onEvict func(key string, val any)
}

type lruEntry struct {
	key   string
	val   any
	bytes int64
}

func newLRU(maxBytes int64) *lru {
	return &lru{max: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

func (c *lru) get(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// getBytes is get with a byte-slice key: the map index converts
// without allocating, which keeps the warm result-cache hit path at
// zero allocations per request.
func (c *lru) getBytes(key []byte) (any, bool) {
	el, ok := c.items[string(key)]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// add inserts key (replacing any previous entry) and evicts from the
// cold end until the budget holds again, returning the eviction count
// and whether the new value was admitted. Values larger than the
// whole budget are not cached at all: admitting one would empty the
// cache for a value that can never be resident anyway. A resident
// entry under the same key is still evicted first — the caller
// replaced it, so leaving the predecessor to be served forever would
// pin a value the caller believes gone.
func (c *lru) add(key string, val any, bytes int64) (evicted int, admitted bool) {
	if bytes > c.max {
		if el, ok := c.items[key]; ok {
			ent := el.Value.(*lruEntry)
			c.ll.Remove(el)
			delete(c.items, ent.key)
			c.bytes -= ent.bytes
			evicted++
		}
		return evicted, false
	}
	if el, ok := c.items[key]; ok {
		c.bytes += bytes - el.Value.(*lruEntry).bytes
		el.Value.(*lruEntry).val = val
		el.Value.(*lruEntry).bytes = bytes
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, bytes: bytes})
		c.bytes += bytes
	}
	for c.bytes > c.max && c.ll.Len() > 1 {
		el := c.ll.Back()
		ent := el.Value.(*lruEntry)
		c.ll.Remove(el)
		delete(c.items, ent.key)
		c.bytes -= ent.bytes
		if c.onEvict != nil {
			c.onEvict(ent.key, ent.val)
		}
		evicted++
	}
	return evicted, true
}

// remove deletes key without invoking onEvict (explicit removal is
// not a demotion) and returns the displaced value.
func (c *lru) remove(key string) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*lruEntry)
	c.ll.Remove(el)
	delete(c.items, ent.key)
	c.bytes -= ent.bytes
	return ent.val, true
}

func (c *lru) len() int { return c.ll.Len() }

// residentGraph is a decoded-tier graph entry of the two-tier cache:
// the CSX graph, its pre-encoded compressed twin (so demotion never
// runs the encoder under the cache lock), the decode arena backing
// the graph when it was rehydrated from the compressed tier, and a
// pin count. refs — guarded by buildCache.mu — counts request pins
// plus one for decoded-tier residency; when it reaches zero the
// arena's slabs return to the pool, so a live request can never see
// its graph's backing arrays recycled under it.
type residentGraph struct {
	g     *graph.Graph
	comp  *compress.CompressedGraph
	arena *compress.Arena
	refs  int
}

// arenaPool recycles decode arenas through a capped sync.Pool in the
// hyperpool style: Get prefers a warm arena whose slabs were already
// sized by a previous rehydration, Put drops arenas above the cap so
// one huge graph does not pin its slabs in the pool forever.
type arenaPool struct {
	pool sync.Pool
	max  int64
	name string // metric prefix
	met  *obs.Metrics
}

func newArenaPool(name string, maxBytes int64, met *obs.Metrics) *arenaPool {
	return &arenaPool{max: maxBytes, name: name, met: met}
}

func (p *arenaPool) get() *compress.Arena {
	if a, ok := p.pool.Get().(*compress.Arena); ok {
		p.met.Add(p.name+".pool_hits", 1)
		return a
	}
	p.met.Add(p.name+".pool_misses", 1)
	return new(compress.Arena)
}

func (p *arenaPool) put(a *compress.Arena) {
	if a == nil || a.SizeBytes() > p.max {
		return
	}
	p.pool.Put(a)
}

// cacheConfig sizes a buildCache. With compression enabled the byte
// budget is split at the demotion watermark: the decoded tier keeps
// watermark × maxBytes for fully-decoded values, and the remainder
// budgets the compressed second-chance tier.
type cacheConfig struct {
	maxBytes  int64
	compress  bool
	watermark float64
}

// decodedBudget returns the decoded-tier byte budget.
func (c cacheConfig) decodedBudget() int64 {
	if !c.compress {
		return c.maxBytes
	}
	w := c.watermark
	if w <= 0 || w >= 1 {
		w = defaultDemoteWatermark
	}
	b := int64(float64(c.maxBytes) * w)
	if b < 1 {
		b = 1
	}
	return b
}

// defaultDemoteWatermark is the decoded-tier fraction of the cache
// budget when -compress-cache is on and no watermark is given.
const defaultDemoteWatermark = 0.5

// buildCache is the preprocessed-structure cache: a byte-budgeted LRU
// with single-flight build deduplication. A thundering herd of
// identical cold queries triggers exactly one build; every other
// caller waits on that flight. The build runs detached from any one
// request's context, so a caller that times out gets its error while
// the build completes for the herd and lands in the cache — a
// request deadline never poisons the cache with a half-built
// structure. Detached is not immortal: every build is bound to the
// cache's own lifetime context, and shutdown cancels it and waits, so
// process exit never strands a preprocessing goroutine mid-build.
//
// With compression enabled the cache is two-tiered for "graph:"
// entries: the decoded tier holds CSX graphs ready to serve, and
// instead of dying on eviction a graph is demoted — its pre-encoded
// compressed twin moves to the compressed tier, charged at
// SizeBytes(). A later miss on the decoded tier rehydrates from the
// compressed tier, decoding into a pooled arena rather than fresh
// arrays. Preprocessed LOTUS structures ("shardplan:"/"shard:") are not
// compressible and evict outright, exactly as before.
type buildCache struct {
	name  string // metric prefix: "<name>.hits", "<name>.misses", ...
	mu    sync.Mutex
	lru   *lru // decoded tier
	comp  *lru // compressed second-chance tier; nil = compression off
	calls map[string]*buildCall
	met   *obs.Metrics

	arenas *arenaPool
	graphs int // decoded-tier residentGraph entries, for the residency gauge

	ctx    context.Context // cancelled by shutdown; bounds every build
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

type buildCall struct {
	done chan struct{}
	val  any
	size int64
	err  error
	// pins counts callers waiting on the flight; it is converted into
	// residentGraph refs at publish so a waiter can never observe its
	// graph's arena recycled between publish and wake-up. Guarded by
	// buildCache.mu.
	pins      int
	published bool
	// rehydrated marks a flight that decoded a compressed-tier entry
	// rather than building from scratch; its waiters report a cache
	// hit (they were served from residency, not a rebuild).
	rehydrated bool
}

func newBuildCache(name string, cfg cacheConfig, met *obs.Metrics) *buildCache {
	ctx, cancel := context.WithCancel(context.Background())
	decoded := cfg.decodedBudget()
	c := &buildCache{
		name: name, lru: newLRU(decoded), calls: map[string]*buildCall{}, met: met,
		ctx: ctx, cancel: cancel,
	}
	// Pre-register the admission-outcome counters so /metrics shows
	// them at zero: a silently-refused oversized value used to be
	// indistinguishable from an admitted one.
	met.Add(name+".admit_oversized", 0)
	met.Add(name+".admit_faults", 0)
	met.Set(name+".bytes", 0)
	met.Set(name+".entries", 0)
	if cfg.compress {
		c.comp = newLRU(cfg.maxBytes - decoded)
		c.comp.onEvict = func(string, any) { met.Add(name+".comp_evictions", 1) }
		c.lru.onEvict = c.demoteLocked
		// Arenas are capped at the full cache budget, not the decoded
		// tier: decompress-on-demand exists precisely for graphs too
		// big to sit decoded, and dropping their slabs on every release
		// would defeat the pool where it matters most.
		c.arenas = newArenaPool(name, cfg.maxBytes, met)
		met.Add(name+".demotions", 0)
		met.Add(name+".rehydrations", 0)
		met.Add(name+".comp_evictions", 0)
		met.Add(name+".pool_hits", 0)
		met.Add(name+".pool_misses", 0)
		met.Set(name+".compressed_entries", 0)
		met.Set(name+".compressed_bytes", 0)
		met.Set(name+".graph_entries", 0)
	}
	return c
}

// shutdown cancels every in-flight detached build and waits for the
// build goroutines to exit. Call it after BeginDrain (no new requests
// spawn builds) and before process exit; the drain test asserts no
// build goroutine survives it.
func (c *buildCache) shutdown() {
	c.cancel()
	c.wg.Wait()
}

// demoteLocked is the decoded tier's eviction hook (called with mu
// held, from inside lru.add): graph entries move their compressed
// twin to the second-chance tier instead of dying, everything else
// evicts outright. The residency ref is dropped either way; the
// arena is recycled once the last in-flight request releases it.
func (c *buildCache) demoteLocked(key string, val any) {
	rg, ok := val.(*residentGraph)
	if !ok {
		return
	}
	c.graphs--
	c.dropRefLocked(rg)
	if rg.comp == nil || c.comp == nil {
		return
	}
	if _, admitted := c.comp.add(key, rg.comp, rg.comp.SizeBytes()); admitted {
		c.met.Add(c.name+".demotions", 1)
	}
}

// dropRefLocked releases one pin; the last pin returns the arena's
// slabs to the pool and poisons the entry so a use-after-release
// fails loudly instead of silently reading recycled memory.
func (c *buildCache) dropRefLocked(rg *residentGraph) {
	rg.refs--
	if rg.refs > 0 || rg.arena == nil {
		return
	}
	c.arenas.put(rg.arena)
	rg.arena = nil
	rg.g = nil
}

// pinLocked takes a request pin on an arena-backed value and returns
// the matching release; non-graph values need no lifetime management
// and get a no-op.
func (c *buildCache) pinLocked(v any) func() {
	rg, ok := v.(*residentGraph)
	if !ok {
		return func() {}
	}
	rg.refs++
	return func() {
		c.mu.Lock()
		c.dropRefLocked(rg)
		c.mu.Unlock()
	}
}

// getOrBuild returns the value for key, building it at most once no
// matter how many callers arrive concurrently. hit reports that this
// caller did not pay for a cold build (LRU hit, shared flight, or a
// rehydration from the compressed tier). release must be called when
// the caller is done with the value — for rehydrated graphs it is
// what lets the decode arena return to the pool. When ctx expires
// while waiting, the caller gets ctx.Err() and the in-flight build
// keeps running for the others.
func (c *buildCache) getOrBuild(ctx context.Context, key string, build func(context.Context) (any, int64, error)) (v any, hit bool, release func(), err error) {
	c.mu.Lock()
	if v, ok := c.lru.get(key); ok {
		c.met.Add(c.name+".hits", 1)
		rel := c.pinLocked(v)
		c.mu.Unlock()
		return v, true, rel, nil
	}
	call, inflight := c.calls[key]
	if !inflight {
		call = &buildCall{done: make(chan struct{})}
		var comp *compress.CompressedGraph
		if c.comp != nil {
			if cv, ok := c.comp.get(key); ok {
				comp = cv.(*compress.CompressedGraph)
			}
		}
		c.calls[key] = call
		c.wg.Add(1)
		if comp != nil {
			call.rehydrated = true
			c.met.Add(c.name+".rehydrations", 1)
			go c.run(key, call, func(context.Context) (any, int64, error) {
				return c.rehydrate(key, comp)
			})
		} else {
			c.met.Add(c.name+".misses", 1)
			c.met.Add(c.name+".builds", 1)
			go c.run(key, call, build)
		}
	} else {
		c.met.Add(c.name+".flight_shared", 1)
	}
	call.pins++
	c.mu.Unlock()

	select {
	case <-call.done:
		// The pin was converted into a residentGraph ref at publish;
		// hand the caller its release.
		return call.val, inflight || call.rehydrated, c.callRelease(call), call.err
	case <-ctx.Done():
		c.met.Add(c.name+".wait_timeouts", 1)
		c.unpin(key, call)
		return nil, false, nil, ctx.Err()
	}
}

// callRelease returns the release func matching the pin a flight
// waiter owns on the published value.
func (c *buildCache) callRelease(call *buildCall) func() {
	rg, ok := call.val.(*residentGraph)
	if !ok {
		return func() {}
	}
	return func() {
		c.mu.Lock()
		c.dropRefLocked(rg)
		c.mu.Unlock()
	}
}

// unpin gives back a flight pin from a caller that stopped waiting.
// Before publish the flight's pin count simply shrinks; after, the
// pin has already become a value ref and must be released like one.
func (c *buildCache) unpin(key string, call *buildCall) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !call.published {
		call.pins--
		return
	}
	if rg, ok := call.val.(*residentGraph); ok {
		c.dropRefLocked(rg)
	}
}

// rehydrate decodes a compressed-tier entry into a pooled arena. A
// decode failure purges the entry — it is corrupt and retrying it
// forever would wedge the key — so the next request rebuilds from
// scratch.
func (c *buildCache) rehydrate(key string, comp *compress.CompressedGraph) (any, int64, error) {
	arena := c.arenas.get()
	g, err := comp.DecodeInto(arena)
	if err != nil {
		c.arenas.put(arena)
		c.mu.Lock()
		c.comp.remove(key)
		c.updateGaugesLocked()
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("serve: rehydrating %s: %w", key, err)
	}
	rg := &residentGraph{g: g, comp: comp, arena: arena}
	return rg, graphBytes(g) + comp.SizeBytes(), nil
}

// buildRetryPolicy bounds the transient-failure retries of a detached
// build: a build the whole herd waits on deserves a few quick retries
// before everyone shares the error.
var buildRetryPolicy = faults.RetryPolicy{Attempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}

// run executes one detached build, converting panics to errors (a
// malformed input must fail its requests, never the process), then
// publishes the result and retires the flight. Transient failures —
// injected or real — are retried with bounded backoff; permanent
// ones fail the flight immediately.
func (c *buildCache) run(key string, call *buildCall, build func(context.Context) (any, int64, error)) {
	defer c.wg.Done()
	func() {
		defer func() {
			if r := recover(); r != nil {
				call.err = fmt.Errorf("serve: building %s: panic: %v", key, r)
			}
		}()
		call.err = faults.Retry(c.ctx, buildRetryPolicy, func() error {
			if err := faults.Inject(FaultBuild); err != nil {
				return err
			}
			var err error
			call.val, call.size, err = build(c.ctx)
			return err
		})
	}()
	// With compression on, freshly-built graphs get their compressed
	// twin encoded here — outside the lock, on the detached build
	// goroutine — so demotion later is a pointer move, never an
	// encoder run under mu. The twin's bytes ride in the decoded
	// entry's charge: both copies are resident while the entry is.
	if call.err == nil && c.comp != nil {
		if g, ok := call.val.(*graph.Graph); ok {
			comp := compress.Encode(g)
			call.val = &residentGraph{g: g, comp: comp}
			call.size += comp.SizeBytes()
		}
	}
	c.mu.Lock()
	delete(c.calls, key)
	call.published = true
	rg, isGraph := call.val.(*residentGraph)
	if isGraph {
		// Convert the waiters' flight pins into value refs before the
		// value becomes reachable through the cache.
		rg.refs = call.pins
	}
	if call.err == nil {
		// A fired admission fault skips caching but still serves the
		// herd this flight built for — degraded residency, never a
		// corrupted entry.
		if err := faults.Inject(FaultCacheAdmit); err != nil {
			c.met.Add(c.name+".admit_faults", 1)
		} else {
			evicted, admitted := c.lru.add(key, call.val, call.size)
			c.met.Add(c.name+".evictions", int64(evicted))
			switch {
			case admitted && isGraph:
				rg.refs++ // residency pin
				c.graphs++
				// The twin's charge moved into the decoded entry;
				// drop the stale compressed-tier copy if one exists.
				if c.comp != nil {
					c.comp.remove(key)
				}
			case !admitted:
				c.met.Add(c.name+".admit_oversized", 1)
				// Too big to ever sit decoded, but its compressed twin
				// may still fit the second-chance tier: later requests
				// then rehydrate on demand instead of rebuilding.
				if isGraph && rg.comp != nil && c.comp != nil {
					if _, ok := c.comp.get(key); !ok {
						if _, admittedComp := c.comp.add(key, rg.comp, rg.comp.SizeBytes()); admittedComp {
							c.met.Add(c.name+".demotions", 1)
						}
					}
				}
			}
			c.updateGaugesLocked()
		}
	}
	c.mu.Unlock()
	close(call.done)
}

// updateGaugesLocked refreshes the residency gauges after any
// mutation of either tier.
func (c *buildCache) updateGaugesLocked() {
	c.met.Set(c.name+".bytes", c.lru.bytes)
	c.met.Set(c.name+".entries", int64(c.lru.len()))
	if c.comp != nil {
		c.met.Set(c.name+".compressed_entries", int64(c.comp.len()))
		c.met.Set(c.name+".compressed_bytes", c.comp.bytes)
		c.met.Set(c.name+".graph_entries", int64(c.graphs))
	}
}

// remove evicts key from both tiers if resident (an in-flight build
// for it is left alone: it will re-add its own result). Used to purge
// entries that turned out to be corrupt — e.g. a prepared structure
// the engine rejected with ErrPreparedMismatch — so demotion must NOT
// apply: a corrupt value has no business surviving in compressed
// form.
func (c *buildCache) remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := false
	if val, ok := c.lru.remove(key); ok {
		removed = true
		if rg, isGraph := val.(*residentGraph); isGraph {
			c.graphs--
			c.dropRefLocked(rg)
		}
	}
	if c.comp != nil {
		if _, ok := c.comp.remove(key); ok {
			removed = true
		}
	}
	if removed {
		c.updateGaugesLocked()
	}
	return removed
}

// peek reports whether key is resident in the decoded tier without
// touching recency or metrics (used by tests and /metrics debugging).
func (c *buildCache) peek(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.lru.items[key]
	return ok
}

// peekCompressed reports compressed-tier residency without touching
// recency or metrics.
func (c *buildCache) peekCompressed(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.comp == nil {
		return false
	}
	_, ok := c.comp.items[key]
	return ok
}
