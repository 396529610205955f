// Package strabon is the geospatial RDF store of the reproduction: the
// role Strabon (Kyzirakos, Karpathiotakis, Koubarakis — ISWC 2012) plays
// in the paper's architecture. It combines the dictionary-encoded triple
// store of package rdf with an R-tree over strdf:hasGeometry objects and
// the stSPARQL engine, exposing an endpoint-style API used by the
// refinement step of the fire-monitoring service.
//
// # Locking discipline
//
// The store is safe for concurrent use through its endpoint API (Query,
// Update, UpdateScoped, LoadTriples, InsertAll, ...). Internally a single
// RWMutex guards the triple store, the spatial index and the geometry
// entry table:
//
//   - Query and QueryStream evaluate under a read lock, so any number
//     of queries — and the read-only planning phases of UpdateScoped —
//     run concurrently. A streaming cursor HOLDS the read lock from
//     QueryStream until Close: writers queue behind open cursors, which
//     is what makes a half-consumed result set immune to concurrent
//     mutation. Clients must Close cursors promptly.
//   - Update, InsertAll and plan application take the write lock;
//     mutations are serialised. Every mutation bumps the store
//     generation, invalidating cached query plans.
//   - The stsparql interface methods (MatchTerms, Add, Remove,
//     MatchGeometryWindow, SpatialIndexEnabled) do NOT lock: they are
//     called by the evaluator while an endpoint method already holds the
//     lock. External callers must go through the endpoint API.
//   - Endpoint statistics live behind a separate mutex so read-locked
//     queries can still count index hits.
//
// UpdateScoped relaxes SPARQL Update atomicity: the WHERE phase runs
// under the read lock and application under the write lock, so a
// conflicting writer could land in between. It exists for the refinement
// loop, whose per-acquisition updates are scope-disjoint (every pattern is
// filtered to one acquisition timestamp), making the interleaving
// unobservable; callers with overlapping updates must use Update.
package strabon

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/resultcache"
	"repro/internal/rtree"
	"repro/internal/stsparql"
)

// Store is a spatially indexed RDF store with an stSPARQL endpoint. See
// the package comment for the locking discipline.
type Store struct {
	mu      sync.RWMutex
	triples *rdf.Store
	ns      *rdf.Namespaces
	cache   *stsparql.Cache

	// plans caches compiled query plans keyed by query text, guarded by
	// mu; gen is the mutation generation plan- and result-cache entries
	// are pinned to. gen is atomic so composite stores and cache
	// validators can read the generation of a store they do NOT hold
	// locked (observed-range-pruned slices, result-cache Get): it is
	// only advanced under the write lock, so a read-locked observer
	// still sees a stable value.
	plans *stsparql.PlanCache
	gen   atomic.Uint64

	indexOn bool
	index   *rtree.Tree
	// geomEntries remembers what was inserted in the index so Remove can
	// delete the exact entry again.
	geomEntries map[string]indexedGeom

	statsMu sync.Mutex
	stats   Stats
}

// defaultPlanCacheSize bounds the compiled-plan cache: the endpoint's
// repeated thematic-query catalogue is far smaller than this.
const defaultPlanCacheSize = 256

type indexedGeom struct {
	env    geom.Envelope
	triple rdf.Triple
	// enc is the dictionary encoding of triple, captured at insert time so
	// window scans can stay in ID space (MatchGeometryWindowIDs).
	enc rdf.EncodedTriple
}

// Stats counts endpoint activity.
type Stats struct {
	Queries       int
	Updates       int
	TriplesLoaded int
	IndexHits     int
}

// New returns an empty store with the spatial index enabled and a
// default-sized plan cache.
func New() *Store {
	return &Store{
		triples:     rdf.NewStore(),
		ns:          rdf.NewNamespaces(),
		cache:       stsparql.NewCache(),
		plans:       stsparql.NewPlanCache(defaultPlanCacheSize),
		indexOn:     true,
		index:       rtree.New(),
		geomEntries: make(map[string]indexedGeom),
	}
}

// SetPlanCacheSize replaces the compiled-plan cache with one holding at
// most n entries; n <= 0 disables plan caching. Counters restart.
func (s *Store) SetPlanCacheSize(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		s.plans = nil
		return
	}
	s.plans = stsparql.NewPlanCache(n)
}

// PlanStats returns a snapshot of the plan cache counters.
func (s *Store) PlanStats() stsparql.PlanCacheStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.plans == nil {
		return stsparql.PlanCacheStats{}
	}
	return s.plans.Stats()
}

// NewWithCache returns an empty store sharing an externally-owned
// geometry cache, so several stores — or a store and direct evaluator
// use — can reuse parsed WKT across query runs.
func NewWithCache(cache *stsparql.Cache) *Store {
	s := New()
	if cache != nil {
		s.cache = cache
	}
	return s
}

// NewWithoutIndex returns a store with spatial index acceleration
// disabled; used by the ablation benchmarks.
func NewWithoutIndex() *Store {
	s := New()
	s.indexOn = false
	return s
}

// Namespaces exposes the store's prefix table.
func (s *Store) Namespaces() *rdf.Namespaces { return s.ns }

// Len reports the number of triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.triples.Len()
}

// Stats returns a snapshot of endpoint statistics.
func (s *Store) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// --- stsparql.Source / UpdatableSource / SpatialSource ---
// These run with the store lock already held by the calling endpoint
// method; they must not lock s.mu themselves.

// MatchTerms implements stsparql.Source.
func (s *Store) MatchTerms(sub, pred, obj rdf.Term, visit func(rdf.Triple) bool) {
	s.triples.MatchTerms(sub, pred, obj, visit)
}

// Add implements stsparql.UpdatableSource, maintaining the spatial
// index and the plan-invalidating generation (it is only called with
// the write lock held).
func (s *Store) Add(t rdf.Triple) bool {
	if !s.triples.Add(t) {
		return false
	}
	s.gen.Add(1)
	if item, ok := s.geomItem(t); ok {
		s.index.Insert(item.Box, item.Data)
	}
	return true
}

// geomItem prepares the spatial-index entry for a geometry triple,
// recording it in geomEntries. ok is false for non-geometry triples.
func (s *Store) geomItem(t rdf.Triple) (rtree.Item, bool) {
	if !t.O.IsGeometry() || !stsparql.GeometryPredicates[t.P.Value] {
		return rtree.Item{}, false
	}
	g, err := geom.ParseWKT(t.O.Value)
	if err != nil {
		return rtree.Item{}, false
	}
	env := g.Envelope()
	key := t.String()
	// The triple was just added, so all three terms are interned; the
	// encoding lets window scans yield IDs without a per-visit lookup.
	dict := s.triples.Dict()
	var enc rdf.EncodedTriple
	enc.S, _ = dict.Lookup(t.S)
	enc.P, _ = dict.Lookup(t.P)
	enc.O, _ = dict.Lookup(t.O)
	s.geomEntries[key] = indexedGeom{env: env, triple: t, enc: enc}
	return rtree.Item{Box: env, Data: key}, true
}

// Remove implements stsparql.UpdatableSource.
func (s *Store) Remove(t rdf.Triple) bool {
	if !s.triples.Remove(t) {
		return false
	}
	s.gen.Add(1)
	if e, ok := s.geomEntries[t.String()]; ok {
		s.index.Delete(e.env, t.String())
		delete(s.geomEntries, t.String())
	}
	return true
}

// CountPattern implements stsparql.StatSource.
func (s *Store) CountPattern(sub, pred, obj rdf.Term) int {
	return s.triples.CountPattern(sub, pred, obj)
}

// PredicateCard implements stsparql.StatSource.
func (s *Store) PredicateCard(pred rdf.Term) (triples, distinctS, distinctO int) {
	return s.triples.PredicateCard(pred)
}

// StoreCard implements stsparql.StatSource.
func (s *Store) StoreCard() (triples, subjects, predicates, objects int) {
	return s.triples.StoreCard()
}

// SpatialIndexEnabled implements stsparql.SpatialSource.
func (s *Store) SpatialIndexEnabled() bool { return s.indexOn }

// MatchGeometryWindow implements stsparql.SpatialSource: it streams the
// geometry triples whose envelope intersects the window.
func (s *Store) MatchGeometryWindow(env geom.Envelope, visit func(rdf.Triple) bool) {
	s.statsMu.Lock()
	s.stats.IndexHits++
	s.statsMu.Unlock()
	s.index.Search(env, func(it rtree.Item) bool {
		e := s.geomEntries[it.Data.(string)]
		return visit(e.triple)
	})
}

// --- stsparql.IDSource / ObjectIDSource / SpatialIDSource ---
// The ID-native scan surface: the engine joins, filters and deduplicates
// on the store's dictionary IDs and materialises terms late (cursor row
// views, ORDER BY, aggregation). Like the term-level methods above,
// these run with the store lock already held.

// Dict implements stsparql.IDSource, exposing the append-only term
// dictionary (IDs are stable for the life of the store; decode is
// lock-free for readers holding the read lock).
func (s *Store) Dict() *rdf.Dictionary { return s.triples.Dict() }

// MatchIDs implements stsparql.IDSource: it streams encoded triples
// matching an encoded pattern (rdf.Wildcard components match anything).
func (s *Store) MatchIDs(sub, pred, obj rdf.ID, visit func(rdf.EncodedTriple) bool) {
	s.triples.Match(sub, pred, obj, visit)
}

// MatchObjectIDs implements stsparql.ObjectIDSource: it streams the
// distinct object IDs of one predicate from the POS index.
func (s *Store) MatchObjectIDs(pred rdf.ID, visit func(rdf.ID) bool) {
	s.triples.Objects(pred, visit)
}

// MatchGeometryWindowIDs implements stsparql.SpatialIDSource: the
// encoded counterpart of MatchGeometryWindow, serving window scans
// without decoding a single term.
func (s *Store) MatchGeometryWindowIDs(env geom.Envelope, visit func(rdf.EncodedTriple) bool) {
	s.statsMu.Lock()
	s.stats.IndexHits++
	s.statsMu.Unlock()
	s.index.Search(env, func(it rtree.Item) bool {
		e := s.geomEntries[it.Data.(string)]
		return visit(e.enc)
	})
}

// DictStats reports the term dictionary's size: interned terms and
// approximate retained bytes. Exported as gauges next to the
// cardinality statistics (see /metrics and /stats).
func (s *Store) DictStats() (entries, bytes int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := s.triples.Dict()
	return d.Len(), d.ApproxBytes()
}

// --- endpoint API ---

// LoadTriples bulk-inserts triples.
func (s *Store) LoadTriples(triples []rdf.Triple) int {
	counts := s.InsertAll(triples)
	return counts[0]
}

// InsertAll bulk-inserts several triple groups under one write-lock
// acquisition, returning the number of new triples per group. Geometry
// triples are gathered across the whole flush and bulk-loaded into the
// R-tree once, instead of one quadratic-split insertion per triple — the
// batched write path of the acquisition pipeline's writer.
func (s *Store) InsertAll(groups ...[]rdf.Triple) []int {
	counts := make([]int, len(groups))
	total := 0
	s.mu.Lock()
	var items []rtree.Item
	for gi, group := range groups {
		for _, t := range group {
			if !s.triples.Add(t) {
				continue
			}
			counts[gi]++
			total++
			if item, ok := s.geomItem(t); ok {
				items = append(items, item)
			}
		}
	}
	if total > 0 {
		s.gen.Add(1)
	}
	s.index.InsertAll(items)
	s.mu.Unlock()

	s.statsMu.Lock()
	s.stats.TriplesLoaded += total
	s.statsMu.Unlock()
	return counts
}

// LoadTurtle parses and loads a Turtle document.
func (s *Store) LoadTurtle(src string) (int, error) {
	triples, err := rdf.ParseTurtle(src, s.ns)
	if err != nil {
		return 0, err
	}
	return s.LoadTriples(triples), nil
}

// Cursor streams the solutions of one query. A SELECT cursor holds the
// store's read lock from QueryStream until Close — close promptly; an
// ASK cursor is pre-materialised and holds no lock. Rows yielded so far
// are counted and reported at Close (Rows), the bookkeeping hook the
// endpoint's streamed responses use.
type Cursor struct {
	inner  stsparql.Cursor
	ask    bool
	rows   int
	unlock func() // releases the read lock; nil once released
	closed bool

	// Result-cache metadata, captured under the read lock at open time:
	// the store generation the rows derive from, and the plan-time
	// cacheability verdict. See CacheVector.
	vec       resultcache.GenVector
	cacheable bool
}

// CacheVector implements CacheInfo: the generation vector this
// cursor's rows were derived from, and whether the result may be
// cached at all (false for non-deterministic plans such as SAMPLE).
func (c *Cursor) CacheVector() (resultcache.GenVector, bool) {
	return c.vec, c.cacheable
}

// Vars is the result header.
func (c *Cursor) Vars() []string { return c.inner.Vars() }

// IsAsk reports whether the cursor carries an ASK verdict (a single row
// binding "ask").
func (c *Cursor) IsAsk() bool { return c.ask }

// Next yields the next solution; ok=false once exhausted or on error
// (check Err).
func (c *Cursor) Next() (stsparql.Binding, bool) {
	if c.closed {
		return nil, false
	}
	row, ok := c.inner.Next()
	if ok {
		c.rows++
	}
	return row, ok
}

// Err reports the first evaluation error, if any.
func (c *Cursor) Err() error { return c.inner.Err() }

// Rows reports how many solutions have been yielded so far.
func (c *Cursor) Rows() int { return c.rows }

// Close terminates the evaluation and releases the store read lock. It
// is idempotent and returns Err().
func (c *Cursor) Close() error {
	if !c.closed {
		c.closed = true
		c.inner.Close()
		if c.unlock != nil {
			c.unlock()
			c.unlock = nil
		}
	}
	return c.inner.Err()
}

// QueryStream parses, plans and starts a SELECT or ASK request,
// returning a streaming cursor over its solutions. Parsing and planning
// consult the plan cache: a repeated query at an unchanged store
// generation reuses its compiled plan. The returned cursor holds the
// store read lock until Close (ASK verdicts are computed eagerly — the
// pipeline stops at the first solution — and release the lock before
// returning).
func (s *Store) QueryStream(src string) (*Cursor, error) {
	s.mu.RLock()
	ev := stsparql.NewEvaluatorWithCache(s, s.cache)
	c, err := ev.CompileCached(src, s.ns, s.plans, s.gen.Load())
	if err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	// Counted after the parse, like the pre-cursor Query: malformed
	// requests are not served queries.
	s.statsMu.Lock()
	s.stats.Queries++
	s.statsMu.Unlock()
	// Captured under the read lock: the generation every row of this
	// evaluation derives from.
	vec := resultcache.GenVector{Gens: []resultcache.SliceGen{{Slice: -1, Gen: s.gen.Load()}}}
	switch {
	case c.IsSelect():
		cur, err := ev.RunCompiled(c)
		if err != nil {
			s.mu.RUnlock()
			return nil, err
		}
		return &Cursor{inner: cur, unlock: s.mu.RUnlock, vec: vec, cacheable: c.Cacheable()}, nil
	case c.IsAsk():
		ok, err := ev.AskCompiled(c)
		s.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		rows := []stsparql.Binding{{"ask": rdf.NewBoolean(ok)}}
		return &Cursor{inner: stsparql.MaterialisedCursor([]string{"ask"}, rows), ask: true,
			vec: vec, cacheable: c.Cacheable()}, nil
	default:
		s.mu.RUnlock()
		return nil, fmt.Errorf("strabon: Query wants SELECT or ASK; use Update for updates")
	}
}

// Query parses and evaluates a SELECT or ASK request, materialising the
// full result through the canonical streaming path (MaterialiseQuery).
// ASK results are returned as a single-row result with variable "ask".
// Queries run under the read lock and may execute concurrently with
// each other.
func (s *Store) Query(src string) (*stsparql.Result, error) {
	return MaterialiseQuery(context.Background(), s, src)
}

// Explain parses a request and renders the evaluation plan the engine
// would choose for it — join order, join strategies (bind / hash /
// R-tree window) and cardinality estimates — without executing it. It
// runs under the read lock because the planner consults live statistics.
func (s *Store) Explain(src string) (string, error) {
	q, err := stsparql.Parse(src, s.ns)
	if err != nil {
		return "", err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	ev := stsparql.NewEvaluatorWithCache(s, s.cache)
	return ev.Explain(q)
}

// Update parses and executes a DELETE/INSERT request atomically: match
// and application both happen under the write lock.
func (s *Store) Update(src string) (stsparql.UpdateStats, error) {
	q, err := s.parseUpdate(src)
	if err != nil {
		return stsparql.UpdateStats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := stsparql.NewEvaluatorWithCache(s, s.cache)
	return ev.Update(q.Update)
}

// UpdateScoped executes a DELETE/INSERT request with its WHERE phase
// under the read lock and its application under the write lock. Several
// scoped updates can therefore match concurrently — the property the
// refinement stage of the acquisition pipeline relies on, since its
// spatial-join WHERE clauses dominate the cost while touching only one
// acquisition's triples. Atomicity across the two phases is NOT
// guaranteed; see the package comment for when this is sound.
func (s *Store) UpdateScoped(src string) (stsparql.UpdateStats, error) {
	q, err := s.parseUpdate(src)
	if err != nil {
		return stsparql.UpdateStats{}, err
	}
	s.mu.RLock()
	ev := stsparql.NewEvaluatorWithCache(s, s.cache)
	plan, err := ev.PlanUpdate(q.Update)
	s.mu.RUnlock()
	if err != nil {
		return stsparql.UpdateStats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return stsparql.ApplyPlan(s, plan), nil
}

func (s *Store) parseUpdate(src string) (*stsparql.Query, error) {
	q, err := stsparql.Parse(src, s.ns)
	if err != nil {
		return nil, err
	}
	if q.Update == nil {
		return nil, fmt.Errorf("strabon: Update wants DELETE/INSERT")
	}
	s.statsMu.Lock()
	s.stats.Updates++
	s.statsMu.Unlock()
	return q, nil
}

// TimedUpdate executes an update and reports its wall-clock duration,
// the measurement unit of the paper's Figure 8.
func (s *Store) TimedUpdate(src string) (stsparql.UpdateStats, time.Duration, error) {
	start := time.Now()
	st, err := s.Update(src)
	return st, time.Since(start), err
}

// TimedQuery evaluates a query and reports its wall-clock duration
// through the shared wrapper (see TimedQuery in api.go).
func (s *Store) TimedQuery(src string) (*stsparql.Result, time.Duration, error) {
	return TimedQuery(s, src)
}
