// Package spatialdb is a small spatial query layer over the PR
// quadtree, in the spirit of the geographic information system that
// motivated the paper [Same85c]: named tables of located records,
// window / nearest / radius queries, and — the point of the exercise —
// an EXPLAIN whose cost estimates come from the population model.
//
// The population model turns the paper's analysis into an optimizer
// statistic: from nothing but the node capacity it predicts the
// expected number of leaf blocks per record, hence the expected number
// of blocks a window query must touch, before a single page is read.
// Explain returns that estimate next to the measured traversal cost so
// callers can see the model earning its keep.
//
// # Resilience
//
// The layer is built to serve concurrent traffic and to degrade rather
// than fail:
//
//   - DB and Table are safe for concurrent readers and writers: the DB
//     guards its catalog with an RWMutex and every table is internally
//     sharded, so traffic on one table — or one region of space —
//     never blocks another.
//   - Inputs are validated at the API boundary: NaN/Inf coordinates and
//     degenerate regions are rejected with the typed errors
//     ErrInvalidPoint and ErrInvalidRegion before they can corrupt the
//     index or send a traversal into undefined territory.
//   - Queries accept an optional node-visit budget (Query.MaxNodes);
//     a query that exhausts it returns the partial result with
//     Cost.Truncated set instead of traversing without bound.
//   - CreateTable solves the population model through a fallback
//     ladder (Newton → fixed point → escalating damping); if every
//     rung fails it falls back to a closed-form occupancy heuristic
//     and marks the table's estimates approximate rather than failing
//     table creation. Solved distributions are cached per
//     (capacity, fanout), so repeated CreateTable calls are O(1)
//     after the first solve.
//   - Deterministic failure points (package faultinject) can be armed
//     for chaos testing; the production default is a nil injector that
//     costs one pointer comparison per operation.
//
// # Sharded write path
//
// Each table is partitioned into P = 4^k spatial shards keyed by the
// top k Morton bit-pairs of the record location — equivalently, the
// level-k cell of the table region containing it. The paper's
// population model is per-subtree and composes across disjoint
// quadrants (the partial-match and cascade analyses in PAPERS.md treat
// quadrants as independent sub-processes), which is exactly what makes
// this partition sound: each shard is a self-contained PR quadtree
// over its cell, with its own mutex, mutation epoch, record counter,
// and frozen snapshot. Insert and Delete lock only the target shard;
// InsertBatch groups the batch by shard and takes the involved shard
// locks in ascending index order — the single table-wide lock order —
// so the all-or-nothing guarantee stays deadlock-free. k defaults to
// the smallest value with 4^k >= GOMAXPROCS (so a single-core process
// pays no sharding overhead) and is configurable via
// TableOptions.ShardBits; with one shard the engine is bit-identical
// to the unsharded layout this package had before sharding.
//
// # Snapshot read path
//
// Each shard keeps an atomically-published linear-quadtree snapshot
// (package linearquad): a pointerless, Morton-coded frozen copy of its
// index, stamped with the shard's mutation epoch. Window and radius
// Selects, CountRange, and Explain on quiescent shards — those whose
// epoch still matches the snapshot's — are served entirely from the
// snapshots without taking any shard lock; a cross-shard query
// revalidates every target shard's epoch after scanning (a seqlock) so
// the merged result is still one consistent cut. Every write since a
// snapshot is recorded in a small per-location write delta attached to
// it, so a stale shard serves range reads under its read lock from the
// snapshot merged with the delta. The snapshot is rebuilt lazily once
// the shard has absorbed SnapshotThreshold mutations since the last
// build (or immediately on Compact, which rebuilds shard by shard so
// one hot region compacting never stalls the others); the threshold
// thus bounds the delta a stale read merges. The live tree serves range
// reads only on a shard with no usable snapshot. Query budgets
// (MaxNodes), Cost accounting, and the faultinject query points apply
// identically on every path.
package spatialdb

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"popana/internal/core"
	"popana/internal/faultinject"
	"popana/internal/geom"
	"popana/internal/linearquad"
	"popana/internal/quadtree"
	"popana/internal/solver"
)

// ErrNoTable is returned for operations on unknown table names.
var ErrNoTable = errors.New("spatialdb: no such table")

// ErrDuplicateID is returned when inserting a record whose ID exists.
var ErrDuplicateID = errors.New("spatialdb: duplicate record id")

// ErrInvalidPoint is returned when a record location or query point has
// a NaN or infinite coordinate.
var ErrInvalidPoint = errors.New("spatialdb: invalid point")

// ErrInvalidRegion is returned when a table region or query window is
// degenerate: non-finite corners, inverted extents, or zero area.
var ErrInvalidRegion = errors.New("spatialdb: invalid region")

// quadFanout is the fanout of the backing PR quadtree.
const quadFanout = 4

// Record is a located row: a caller-assigned ID, a position, and an
// arbitrary payload.
type Record struct {
	ID   uint64
	Loc  geom.Point
	Data any
}

// validatePoint rejects coordinates the index cannot reason about.
func validatePoint(p geom.Point) error {
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		return fmt.Errorf("%w: %v", ErrInvalidPoint, p)
	}
	return nil
}

// validateRegion rejects degenerate rectangles. The zero Rect is allowed
// where documented (it selects the unit square).
func validateRegion(r geom.Rect) error {
	for _, c := range [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: non-finite corner in %v", ErrInvalidRegion, r)
		}
	}
	if r.MinX >= r.MaxX || r.MinY >= r.MaxY {
		return fmt.Errorf("%w: zero or negative area %v", ErrInvalidRegion, r)
	}
	return nil
}

// DB is a collection of named spatial tables, safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	inj    *faultinject.Injector
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}}
}

// SetFaultInjector arms the database and all tables created afterwards
// with deterministic failure points for chaos testing. Call it before
// creating tables and before sharing the DB across goroutines; the
// default nil injector costs nothing.
func (db *DB) SetFaultInjector(inj *faultinject.Injector) { db.inj = inj }

// solveCache memoizes the population-model occupancy per
// (capacity, fanout): repeated table creation pays the iterative solve
// only once per process. Only exact (non-heuristic) solves are cached,
// and the cache is bypassed entirely while a fault injector is armed so
// chaos runs stay deterministic.
var solveCache sync.Map // solveKey -> float64

type solveKey struct{ capacity, fanout int }

// solveOccupancy returns the model-predicted records per block for a
// node capacity. The solve runs through the fallback ladder; when every
// rung fails the closed-form occupancy heuristic is returned with
// approx=true, and the table's estimates are marked approximate.
func solveOccupancy(capacity int, inj *faultinject.Injector) (occ float64, approx bool, attempts []solver.Attempt, err error) {
	key := solveKey{capacity, quadFanout}
	if inj == nil {
		if v, ok := solveCache.Load(key); ok {
			return v.(float64), false, nil, nil
		}
	}
	model, err := core.NewPointModel(capacity, quadFanout)
	if err != nil {
		return 0, false, nil, err
	}
	cfg := solver.LadderConfig{}
	if inj != nil {
		cfg.Fault = func(method string, _ float64) error {
			if method == "newton" {
				return inj.Err(faultinject.SolverNewton)
			}
			return inj.Err(faultinject.SolverFixedPoint)
		}
	}
	d, attempts, serr := model.SolveLadder(cfg)
	if serr != nil {
		// Every rung failed: degrade to the closed-form heuristic so
		// table creation still succeeds, with estimates flagged.
		return model.OccupancyHeuristic(), true, attempts, nil
	}
	occ = d.AverageOccupancy()
	if inj == nil {
		solveCache.Store(key, occ)
	}
	return occ, false, attempts, nil
}

// SingleShard, passed as TableOptions.ShardBits, forces exactly one
// shard: the table is then bit-identical in structure and behavior to
// the pre-sharding engine (one quadtree over the whole region, one
// lock, one snapshot).
const SingleShard = -1

// MaxShardBits caps the shard-key depth: at k = 3 a table has 64
// shards, past the point of diminishing returns for any core count
// this repository targets, while keeping the per-shard depth headroom
// (DefaultMaxDepth - k) essentially intact.
const MaxShardBits = 3

// TableOptions parameterizes CreateTableWith.
type TableOptions struct {
	// Capacity is the node capacity of the backing PR quadtrees.
	Capacity int
	// Region is the table's universe; the zero Rect selects the unit
	// square.
	Region geom.Rect
	// ShardBits selects the number of leading Morton bit-pairs that key
	// a record's shard: the table is split into 4^ShardBits spatial
	// shards, one per level-ShardBits cell of the region. Zero picks
	// the smallest k with 4^k >= GOMAXPROCS (capped at MaxShardBits),
	// so a single-core process gets one shard and pays no sharding
	// overhead; SingleShard forces one shard explicitly. Values above
	// MaxShardBits are clamped.
	ShardBits int
	// SnapshotThreshold overrides DefaultSnapshotThreshold; zero keeps
	// the default.
	SnapshotThreshold int
}

// autoShardBits picks the default shard-key depth: the smallest k with
// 4^k >= GOMAXPROCS, capped at MaxShardBits, so the shard count tracks
// the parallelism actually available to writers.
func autoShardBits() int {
	p := runtime.GOMAXPROCS(0)
	k := 0
	for k < MaxShardBits && 1<<(2*k) < p {
		k++
	}
	return k
}

// CreateTable creates a table with the given node capacity over the
// unit square (the region every generator in this repository uses);
// pass a non-zero region to cover other extents. The shard count
// defaults to GOMAXPROCS rounded up to a power of four; use
// CreateTableWith to pin it.
func (db *DB) CreateTable(name string, capacity int, region geom.Rect) (*Table, error) {
	return db.CreateTableWith(name, TableOptions{Capacity: capacity, Region: region})
}

// resolveShardBits maps a TableOptions.ShardBits value to the actual
// shard-key depth: SingleShard forces one shard, zero auto-sizes to
// GOMAXPROCS, values above MaxShardBits are clamped.
func resolveShardBits(bits int) (int, error) {
	switch {
	case bits == SingleShard:
		return 0, nil
	case bits == 0:
		return autoShardBits(), nil
	case bits < 0:
		return 0, fmt.Errorf("ShardBits %d out of range", bits)
	case bits > MaxShardBits:
		return MaxShardBits, nil
	}
	return bits, nil
}

// resolveTableShape validates and defaults the region and shard layout
// of a new table.
func resolveTableShape(name string, opts TableOptions) (geom.Rect, int, error) {
	region := opts.Region
	if region == (geom.Rect{}) {
		region = geom.UnitSquare
	} else if err := validateRegion(region); err != nil {
		return geom.Rect{}, 0, fmt.Errorf("spatialdb: create %q: %w", name, err)
	}
	bits, err := resolveShardBits(opts.ShardBits)
	if err != nil {
		return geom.Rect{}, 0, fmt.Errorf("spatialdb: create %q: %w", name, err)
	}
	return region, bits, nil
}

// CreateTableWith creates a table with explicit options.
func (db *DB) CreateTableWith(name string, opts TableOptions) (*Table, error) {
	region, bits, err := resolveTableShape(name, opts)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("spatialdb: table %q already exists", name)
	}
	t, err := db.buildTable(name, opts, region, bits)
	if err != nil {
		return nil, err
	}
	db.tables[name] = t
	return t, nil
}

// buildTable constructs a Table and its shards from resolved options.
// The caller holds db.mu and registers the table in the catalog.
func (db *DB) buildTable(name string, opts TableOptions, region geom.Rect, bits int) (*Table, error) {
	occ, approx, attempts, err := solveOccupancy(opts.Capacity, db.inj)
	if err != nil {
		return nil, fmt.Errorf("spatialdb: create %q: %w", name, err)
	}
	t := &Table{
		name:        name,
		capacity:    opts.Capacity,
		inj:         db.inj,
		region:      region,
		shardLevels: bits,
		ids:         newIDIndex(),
		snapEvery:   DefaultSnapshotThreshold,
		occ:         occ,
		occApprox:   approx,
		attempts:    attempts,
	}
	if opts.SnapshotThreshold > 0 {
		t.snapEvery = uint64(opts.SnapshotThreshold)
	}
	t.shards = make([]*shard, 1<<(2*bits))
	for i := range t.shards {
		cell := region.Cell(uint64(i), bits)
		idx, err := quadtree.New[Record](quadtree.Config{
			Capacity: opts.Capacity,
			Region:   cell,
			// A shard root sits k levels below the table root; shrink
			// its depth budget so the deepest reachable cell of the
			// global decomposition is the same as in a single-shard
			// table.
			MaxDepth: quadtree.DefaultMaxDepth - bits,
		})
		if err != nil {
			return nil, fmt.Errorf("spatialdb: create %q: %w", name, err)
		}
		t.shards[i] = &shard{
			region: cell,
			si:     i,
			inj:    db.inj,
			index:  idx,
			coder:  linearquad.NewCellCoder(cell, linearquad.MaxDepth),
			dirty:  linearquad.NewDirty(dirtyLevel),
		}
	}
	return t, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Tables returns the table names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DropTable removes the named table.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	delete(db.tables, name)
	return nil
}

// DefaultSnapshotThreshold is the number of mutations a shard absorbs
// before the next range read rebuilds its frozen snapshot. Until then a
// stale shard's range reads merge the snapshot with the delta of writes
// since it, so the threshold bounds that delta: small enough that the
// merge stays a short loop and read-mostly shards regain the lock-free
// path quickly; large enough that a write burst does not pay an O(n)
// freeze per handful of inserts.
const DefaultSnapshotThreshold = 64

// Table is one spatially indexed record collection, safe for concurrent
// readers and writers. Records are partitioned across 4^k spatial
// shards by the top k Morton bit-pairs of their location (see the
// package comment); all exported methods hide the sharding.
type Table struct {
	name     string
	capacity int
	inj      *faultinject.Injector

	// region is the table universe; immutable.
	region geom.Rect
	// shardLevels is k: the number of quadrant-descent levels (Morton
	// bit-pairs) in the shard key. Immutable.
	shardLevels int
	// shards holds the 4^k shards in Z-order of their level-k cell
	// codes; the slice and its cells are immutable, so shard lookup is
	// lock-free.
	shards []*shard
	// ids maps record ID to location, lock-striped independently of the
	// spatial shards.
	ids *idIndex

	// snapEvery is the per-shard staleness (in mutations) at which a
	// range read rebuilds the snapshot, and so the bound on the write
	// delta a stale read merges; immutable after creation except via
	// SetSnapshotThreshold.
	snapEvery uint64

	// occ is the model-predicted records per block; occApprox marks it
	// as the closed-form heuristic (every solver rung failed). Both are
	// immutable after creation.
	occ       float64
	occApprox bool
	attempts  []solver.Attempt

	// dur is the durable-storage state — per-shard WALs and sealed run
	// ladders — or nil for an in-memory table. Set once at creation.
	dur *durableTable
}

// SetSnapshotThreshold overrides DefaultSnapshotThreshold: the number
// of mutations after which a range read that finds a shard's snapshot
// stale rebuilds it. Below it, stale range reads merge the snapshot
// with the delta of writes since it (at most n entries, capped at 256).
// n <= 0 restores the default. Call before the table is shared across
// goroutines.
func (t *Table) SetSnapshotThreshold(n int) {
	if n <= 0 {
		t.snapEvery = DefaultSnapshotThreshold
		return
	}
	t.snapEvery = uint64(n)
}

// Shards returns the number of spatial shards (4^ShardBits).
func (t *Table) Shards() int { return len(t.shards) }

// shardIndexOf returns the index of the shard owning p: the locational
// code of p's level-k cell. Points outside the region land in the
// nearest boundary shard, whose tree then rejects them with the same
// out-of-region error a single-shard table produces.
//
//popvet:noalloc
func (t *Table) shardIndexOf(p geom.Point) int {
	return int(t.region.CellOf(p, t.shardLevels))
}

// shardOf returns the shard owning p.
func (t *Table) shardOf(p geom.Point) *shard {
	return t.shards[t.shardIndexOf(p)]
}

// shardsOverlapping returns the shards whose cell touches the closed
// query rectangle, ascending by shard index — the order every
// multi-shard lock acquisition and result merge uses. The overlap test
// is the same closed-vs-half-open predicate the tree traversals prune
// with, so shard pruning can never drop a boundary match. One shard, or
// every shard, is returned as a subslice of t.shards with no
// allocation; callers must not modify the result.
func (t *Table) shardsOverlapping(query geom.Rect) []*shard {
	first, n := -1, 0
	for i, s := range t.shards {
		if s.region.OverlapsClosed(query) {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	switch n {
	case 0:
		return nil
	case 1:
		return t.shards[first : first+1]
	case len(t.shards):
		return t.shards
	}
	out := make([]*shard, 0, n)
	for _, s := range t.shards[first:] {
		if s.region.OverlapsClosed(query) {
			out = append(out, s)
		}
	}
	return out
}

// Compact rebuilds every shard's frozen snapshot immediately, restoring
// the lock-free read path after a write burst without waiting for the
// mutation threshold. Each shard compacts under its own read lock
// (concurrent queries proceed; writers to that shard wait briefly), so
// one hot region never stalls the others. The returned error is the
// first rebuild failure — a tree too deep to Morton-encode
// (linearquad.ErrTooDeep) or an injected fault — in which case reads on
// the affected shards keep falling back to their live trees.
func (t *Table) Compact() error {
	// A lazy table has no snapshots to rebuild; its compaction is the
	// disk one — merge each shard's run ladder into a single full run.
	if t.lazyMode() {
		return t.CompactDisk()
	}
	var firstErr error
	for _, s := range t.shards {
		if err := s.compact(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Len returns the number of records. It reads the shards' atomic
// counters and never blocks behind a writer; a Len that overlaps
// in-flight writes reflects some subset of them.
func (t *Table) Len() int {
	n := int64(0)
	for _, s := range t.shards {
		n += s.count.Load()
	}
	return int(n)
}

// SolveAttempts returns the solver fallback-ladder log from table
// creation: one entry per rung tried, in order. Empty when the
// occupancy came from the per-capacity cache.
func (t *Table) SolveAttempts() []solver.Attempt { return t.attempts }

// Insert adds a record; IDs must be unique and locations distinct (two
// records at the same exact point would be a single map key for the
// underlying structure). Locations with NaN or infinite coordinates are
// rejected with ErrInvalidPoint. An injected fault fails the insert
// before any state changes, so a failed insert never leaves a partial
// record behind. Only the target shard (and the ID's stripe) is
// locked, so concurrent inserts into different regions of space do not
// contend.
func (t *Table) Insert(rec Record) error {
	if err := validatePoint(rec.Loc); err != nil {
		return fmt.Errorf("spatialdb: insert into %q: %w", t.name, err)
	}
	// Durable write-ahead ordering requires every failure mode of the
	// in-memory apply to be ruled out before the WAL append, so the
	// region check and payload encoding happen up front (an in-memory
	// table defers the region check to the tree, which produces the
	// same ErrOutOfRegion).
	var payload []byte
	if t.dur != nil {
		if !t.region.Contains(rec.Loc) {
			return fmt.Errorf("spatialdb: insert into %q: %w: %v not in %v",
				t.name, quadtree.ErrOutOfRegion, rec.Loc, t.region)
		}
		var perr error
		if payload, perr = encodePayload(rec.Data); perr != nil {
			return fmt.Errorf("spatialdb: insert into %q: %w", t.name, perr)
		}
	}
	t.inj.Delay(faultinject.InsertLatency)
	if err := t.inj.Err(faultinject.InsertFault); err != nil {
		return fmt.Errorf("spatialdb: insert into %q: %w", t.name, err)
	}
	si := t.shardIndexOf(rec.Loc)
	s := t.shards[si]
	st := t.ids.stripe(rec.ID)
	// Lock order: shard, then stripe.
	s.mu.Lock()
	defer s.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, exists := st.m[rec.ID]; exists {
		return fmt.Errorf("%w: %d", ErrDuplicateID, rec.ID)
	}
	lazy := t.lazyMode()
	occupied := false
	if lazy {
		occupied = t.lazyOccupied(si, rec.Loc)
	} else {
		occupied = s.index.Contains(rec.Loc)
	}
	if occupied {
		return fmt.Errorf("spatialdb: insert into %q: location %v already occupied", t.name, rec.Loc)
	}
	if t.dur != nil {
		// Write-ahead: a failed append leaves no partial record (the
		// in-memory state is untouched and recovery discards the torn
		// frame); a successful append cannot fail to apply.
		if err := t.dur.logInsert(si, rec, payload); err != nil {
			return fmt.Errorf("spatialdb: insert into %q: %w", t.name, err)
		}
		defer t.dur.notifyFlush()
	}
	s.epoch.Add(1) // invalidate the frozen snapshot before mutating
	if lazy {
		s.tail[rec.Loc] = tailRec{rec: rec}
	} else {
		s.markDirty(rec.Loc)
		if _, err := s.index.Insert(rec.Loc, rec); err != nil {
			return fmt.Errorf("spatialdb: insert into %q: %w", t.name, err)
		}
		s.recordLocked(rec, true, t.snapEvery)
	}
	st.m[rec.ID] = rec.Loc
	s.count.Add(1)
	return nil
}

// InsertBatch adds a batch of records atomically: the whole batch is
// validated — points finite and in-region, IDs unique (within the batch
// and against the table), locations distinct — before anything is
// inserted, so on error the table is unchanged. The batch is then
// partitioned by shard and each sub-batch bulk-loaded into its shard's
// tree, with every involved shard write lock (ascending index order,
// deadlock-free) held until the last sub-batch lands — so concurrent
// readers, which hold all their target shards' read locks for the whole
// scan, never observe a partially applied batch.
func (t *Table) InsertBatch(recs []Record) error {
	var payloads [][]byte
	if t.dur != nil {
		payloads = make([][]byte, len(recs))
	}
	for i := range recs {
		if err := validatePoint(recs[i].Loc); err != nil {
			return fmt.Errorf("spatialdb: insert batch into %q: record %d: %w", t.name, i, err)
		}
		if !t.region.Contains(recs[i].Loc) {
			return fmt.Errorf("spatialdb: insert batch into %q: %w: %v not in %v",
				t.name, quadtree.ErrOutOfRegion, recs[i].Loc, t.region)
		}
		if t.dur != nil {
			var perr error
			if payloads[i], perr = encodePayload(recs[i].Data); perr != nil {
				return fmt.Errorf("spatialdb: insert batch into %q: record %d: %w", t.name, i, perr)
			}
		}
	}
	t.inj.Delay(faultinject.InsertLatency)
	if err := t.inj.Err(faultinject.InsertFault); err != nil {
		return fmt.Errorf("spatialdb: insert batch into %q: %w", t.name, err)
	}
	if len(recs) == 0 {
		return nil
	}
	// Partition by shard; involved shards in ascending index order.
	byShard := make([][]int, len(t.shards))
	involved := make([]int, 0, 4)
	var stripeMask uint32
	for i := range recs {
		si := t.shardIndexOf(recs[i].Loc)
		if byShard[si] == nil {
			involved = append(involved, si)
		}
		byShard[si] = append(byShard[si], i)
		stripeMask |= 1 << (recs[i].ID % idStripes)
	}
	sort.Ints(involved)
	targets := make([]*shard, len(involved))
	for i, si := range involved {
		targets[i] = t.shards[si]
	}
	lockShards(targets)
	defer unlockShards(targets)
	t.ids.lockStripes(stripeMask)
	defer t.ids.unlockStripes(stripeMask)
	// Validate against the locked state.
	seenID := make(map[uint64]struct{}, len(recs))
	seenLoc := make(map[geom.Point]struct{}, len(recs))
	for i := range recs {
		id, loc := recs[i].ID, recs[i].Loc
		if _, dup := seenID[id]; dup {
			return fmt.Errorf("spatialdb: insert batch into %q: %w: %d repeated in batch", t.name, ErrDuplicateID, id)
		}
		if _, exists := t.ids.stripe(id).m[id]; exists {
			return fmt.Errorf("%w: %d", ErrDuplicateID, id)
		}
		if _, dup := seenLoc[loc]; dup {
			return fmt.Errorf("spatialdb: insert batch into %q: location %v repeated in batch", t.name, loc)
		}
		occupied := false
		if t.lazyMode() {
			occupied = t.lazyOccupied(t.shardIndexOf(loc), loc)
		} else {
			occupied = t.shardOf(loc).index.Contains(loc)
		}
		if occupied {
			return fmt.Errorf("spatialdb: insert batch into %q: location %v already occupied", t.name, loc)
		}
		seenID[id] = struct{}{}
		seenLoc[loc] = struct{}{}
	}
	if t.dur != nil {
		// Write-ahead, all shards logged under the held locks: if any
		// per-shard append fails the batch is marked failed (frames
		// already written are dropped by Flush and by recovery's
		// completeness check) and nothing is applied.
		if err := t.dur.logBatch(involved, byShard, recs, payloads); err != nil {
			return fmt.Errorf("spatialdb: insert batch into %q: %w", t.name, err)
		}
		defer t.dur.notifyFlush()
	}
	// Apply per shard. Validation above covered every BulkLoad failure
	// mode (region membership, duplicate locations), so the loop cannot
	// fail partway.
	for _, si := range involved {
		s := t.shards[si]
		idxs := byShard[si]
		s.epoch.Add(uint64(len(idxs))) // invalidate the snapshot before mutating
		if t.lazyMode() {
			for _, ri := range idxs {
				s.tail[recs[ri].Loc] = tailRec{rec: recs[ri]}
			}
		} else {
			points := make([]geom.Point, len(idxs))
			vals := make([]Record, len(idxs))
			for j, ri := range idxs {
				points[j] = recs[ri].Loc
				vals[j] = recs[ri]
				s.markDirty(recs[ri].Loc)
			}
			if _, err := s.index.BulkLoad(points, vals); err != nil {
				return fmt.Errorf("spatialdb: insert batch into %q: %w", t.name, err)
			}
			for _, ri := range idxs {
				s.recordLocked(recs[ri], true, t.snapEvery)
			}
		}
		s.count.Add(int64(len(idxs)))
		for _, ri := range idxs {
			t.ids.stripe(recs[ri].ID).m[recs[ri].ID] = recs[ri].Loc
		}
	}
	return nil
}

// Get returns the record with the given ID. On a quiescent shard it is
// served from the frozen snapshot without locking.
func (t *Table) Get(id uint64) (Record, bool) {
	loc, ok := t.ids.lookup(id)
	if !ok {
		return Record{}, false
	}
	if t.lazyMode() {
		return t.getLazy(id, loc)
	}
	s := t.shardOf(loc)
	if f, _ := s.loadFresh(); f != nil {
		if rec, ok := f.Get(loc); ok && rec.ID == id {
			return rec, true
		}
		// A concurrent delete/re-insert may have raced the lookup; the
		// locked read below is authoritative.
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.index.Get(loc)
	if !ok || rec.ID != id {
		return Record{}, false
	}
	return rec, true
}

// Delete removes the record with the given ID, locking only the shard
// that holds it. The location is looked up first and re-verified under
// the shard lock; if a concurrent delete+insert moved the ID between
// the two reads, the deletion retries against the new location. On a
// durable table a WAL failure aborts the delete and reports "not
// deleted"; use DeleteChecked to observe the error itself.
func (t *Table) Delete(id uint64) bool {
	deleted, _ := t.DeleteChecked(id)
	return deleted
}

// DeleteChecked is Delete with the durable write-ahead error surfaced:
// a delete whose WAL append fails is not applied, and the error says
// why. In-memory tables never return an error.
func (t *Table) DeleteChecked(id uint64) (bool, error) {
	for {
		loc, ok := t.ids.lookup(id)
		if !ok {
			return false, nil
		}
		done, deleted, err := t.deleteAt(id, loc)
		if err != nil {
			return false, fmt.Errorf("spatialdb: delete from %q: %w", t.name, err)
		}
		if done {
			return deleted, nil
		}
	}
}

// deleteAt removes id if it still lives at loc. done=false means the ID
// relocated between lookup and lock (retry with a fresh lookup).
func (t *Table) deleteAt(id uint64, loc geom.Point) (done, deleted bool, err error) {
	si := t.shardIndexOf(loc)
	s := t.shards[si]
	st := t.ids.stripe(id)
	// Lock order: shard, then stripe.
	s.mu.Lock()
	defer s.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	cur, ok := st.m[id]
	if !ok {
		return true, false, nil
	}
	if cur != loc {
		return false, false, nil
	}
	if t.dur != nil {
		// Write-ahead: a failed append leaves the record in place.
		if err := t.dur.logDelete(si, id, loc); err != nil {
			return true, false, err
		}
		defer t.dur.notifyFlush()
	}
	s.epoch.Add(1) // invalidate the frozen snapshot before mutating
	delete(st.m, id)
	if t.lazyMode() {
		// The id index vouched for the record (cur == loc), so the
		// tombstone always deletes exactly one live record.
		s.tail[loc] = tailRec{rec: Record{ID: id, Loc: loc}, tomb: true}
		s.count.Add(-1)
		return true, true, nil
	}
	s.markDirty(loc)
	if s.index.Delete(loc) {
		s.recordLocked(Record{ID: id, Loc: loc}, false, t.snapEvery)
		s.count.Add(-1)
		return true, true, nil
	}
	return true, false, nil
}
