// Package faultinject provides deterministic, seedable failure points
// for chaos testing the layers above the quadtree: forced solver
// divergence, injected latency, and forced insert/split failures.
//
// A failure point is named by a Point constant and armed on an Injector
// with a firing probability (and optionally a latency or a fire budget).
// Production code consults the injector through nil-safe methods, so the
// default — a nil *Injector — costs one pointer comparison and allocates
// nothing; only test configurations that explicitly arm an injector pay
// for the RNG draw and bookkeeping.
//
// Firing decisions come from a seeded xrand generator, so a chaos run is
// reproducible from its seed even though the interleaving of goroutines
// is not: the k-th visit to the injector fires identically across runs
// with the same seed and visit order.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"popana/internal/xrand"
)

// ErrInjected is wrapped by every error an injector produces, so callers
// (and chaos tests) can distinguish injected faults from real ones with
// errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Point names a failure site wired into the codebase.
type Point string

// Failure points consulted by the resilience layer.
const (
	// SolverNewton fails the Newton rung of a solver fallback ladder.
	SolverNewton Point = "solver.newton"
	// SolverFixedPoint fails a fixed-point rung (any damping) of a
	// solver fallback ladder.
	SolverFixedPoint Point = "solver.fixed-point"
	// InsertFault fails a spatialdb insert before it mutates the table,
	// simulating a failed block split or allocation.
	InsertFault Point = "spatialdb.insert"
	// InsertLatency delays a spatialdb insert.
	InsertLatency Point = "spatialdb.insert.latency"
	// QueryLatency delays a spatialdb select.
	QueryLatency Point = "spatialdb.query.latency"
	// SnapshotRebuild fails a per-shard frozen-snapshot rebuild before
	// the new snapshot is published, simulating a freeze that cannot
	// complete; queries on that shard keep falling back to its live
	// tree.
	SnapshotRebuild Point = "spatialdb.snapshot.rebuild"
	// WALTornWrite tears a write-ahead-log append mid-frame: only a
	// prefix of the record reaches the file, the append reports
	// failure, and the log poisons itself — exactly the state a crash
	// during the write syscall leaves behind. Recovery must discard the
	// torn tail.
	WALTornWrite Point = "wal.append.torn"
	// WALSyncFail fails a write-ahead-log fsync, as a disk that drops
	// dirty pages does: the sync reports failure, the log poisons
	// itself and drops the frames appended since the last good sync,
	// and the write waiting on that sync is never acknowledged.
	WALSyncFail Point = "wal.sync.fail"
	// SegmentPartialFlush cuts a sealed-run write short: the segment
	// file ends mid-block with no footer, and the flush reports
	// failure before the WAL is truncated. Recovery must treat the run
	// as torn and fall back to the previous runs plus the WAL.
	SegmentPartialFlush Point = "segment.flush.partial"
	// SegmentCorruption damages a sealed-run block after its checksum
	// was computed (and suppresses the footer), simulating garbage
	// reaching the platter during a crash. The flush reports failure;
	// recovery must reject the run by checksum and fall back.
	SegmentCorruption Point = "segment.write.corrupt"
	// CompactionInterrupted kills a disk compaction after the merged
	// run is durable but before the superseded runs are deleted.
	// Recovery must prefer the newest sealed run and ignore the
	// leftovers.
	CompactionInterrupted Point = "segment.compact.interrupt"
	// SegmentBlockPoison damages the in-flight buffer of one sealed-run
	// entry-block read after it leaves the kernel — a poisoned cache
	// line or DMA bit flip — so the block's checksum fails on arrival.
	// The reader must detect the damage, discard the buffer, and
	// re-read from disk rather than serve or cache the poisoned bytes;
	// only a mismatch that survives the re-read is real corruption.
	SegmentBlockPoison Point = "segment.block.poison"
	// DiskCursorSeal fires inside a disk-serving query after it has
	// pinned its run stack and WAL-tail view, triggering a synchronous
	// flush that seals the tail into a new run mid-iteration. The
	// pinned cursor must keep serving its superseded — but internally
	// consistent — view: the refcounted run stack keeps sealed readers
	// open until the last cursor releases them.
	DiskCursorSeal Point = "spatialdb.disk.cursor.seal"
)

// allPoints is the canonical registry of every failure point wired into
// the codebase. A Point constant declared above MUST be listed here:
// the popvet faultpoint analyzer resolves every point name used at a
// call site against the constants of this package, and
// TestPointRegistryComplete keeps this list in lock-step with the
// declarations, so a chaos test can enumerate Points() and know the
// names cannot silently rot.
var allPoints = []Point{
	SolverNewton,
	SolverFixedPoint,
	InsertFault,
	InsertLatency,
	QueryLatency,
	SnapshotRebuild,
	WALTornWrite,
	WALSyncFail,
	SegmentPartialFlush,
	SegmentCorruption,
	CompactionInterrupted,
	SegmentBlockPoison,
	DiskCursorSeal,
}

// DiskReadPoints returns the registered failure points on the
// disk-serving read path — poisoned block reads and mid-iteration
// seals — the set the disk-query chaos suite must cover one by one.
// The returned slice is a copy.
func DiskReadPoints() []Point {
	return []Point{SegmentBlockPoison, DiskCursorSeal}
}

// DurabilityPoints returns the registered failure points on the
// durability path — WAL append and sync, segment flush, and compaction
// — the set the crash-recovery chaos suite must cover one by one. The
// returned slice is a copy.
func DurabilityPoints() []Point {
	return []Point{WALTornWrite, WALSyncFail, SegmentPartialFlush, SegmentCorruption, CompactionInterrupted}
}

// Points returns the canonical list of registered failure points, in
// declaration order. The returned slice is a copy.
func Points() []Point {
	out := make([]Point, len(allPoints))
	copy(out, allPoints)
	return out
}

// rule is the armed behavior of one failure point.
type rule struct {
	prob      float64       // firing probability per visit
	remaining int           // fires left; negative means unlimited
	latency   time.Duration // sleep duration for Delay points
}

// Injector is a set of armed failure points. A nil *Injector is the
// production default: every method is safe to call on it and does
// nothing. The zero Injector is not usable; construct with New.
type Injector struct {
	mu    sync.Mutex
	rng   *xrand.Rand
	rules map[Point]*rule
	fired map[Point]int
}

// New returns an injector with no points armed, drawing firing decisions
// from the given seed.
func New(seed uint64) *Injector {
	return &Injector{
		rng:   xrand.New(seed),
		rules: map[Point]*rule{},
		fired: map[Point]int{},
	}
}

// Enable arms p to fire with the given probability on every visit.
func (in *Injector) Enable(p Point, prob float64) { in.EnableN(p, prob, -1) }

// EnableN arms p to fire with the given probability at most n times
// (n < 0 means unlimited).
func (in *Injector) EnableN(p Point, prob float64, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[p] = &rule{prob: prob, remaining: n}
}

// EnableLatency arms p so that Delay sleeps d with the given probability
// on each visit.
func (in *Injector) EnableLatency(p Point, prob float64, d time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[p] = &rule{prob: prob, remaining: -1, latency: d}
}

// Disable disarms p.
func (in *Injector) Disable(p Point) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.rules, p)
}

// Fire reports whether failure point p fires on this visit, consuming
// one fire from a bounded budget when it does. Nil-safe.
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	fired, _ := in.fire(p)
	return fired
}

// fire decides one visit under the lock, returning whether p fired and
// the latency to apply if it did.
func (in *Injector) fire(p Point) (bool, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rules[p]
	if r == nil || r.remaining == 0 {
		return false, 0
	}
	if r.prob < 1 && in.rng.Float64() >= r.prob {
		return false, 0
	}
	if r.remaining > 0 {
		r.remaining--
	}
	in.fired[p]++
	return true, r.latency
}

// Err returns an ErrInjected-wrapped error when p fires, nil otherwise.
// Nil-safe.
func (in *Injector) Err(p Point) error {
	if in == nil {
		return nil
	}
	if fired, _ := in.fire(p); fired {
		return fmt.Errorf("%w at %s", ErrInjected, p)
	}
	return nil
}

// Delay sleeps the armed latency when p fires. The sleep happens outside
// the injector lock so concurrent visits to other points are not
// serialized behind it. Nil-safe.
func (in *Injector) Delay(p Point) {
	if in == nil {
		return
	}
	if fired, d := in.fire(p); fired && d > 0 {
		time.Sleep(d)
	}
}

// Fired returns how many times p has fired, for test assertions that the
// chaos actually happened.
func (in *Injector) Fired(p Point) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p]
}
