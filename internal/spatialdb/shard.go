package spatialdb

import (
	"sync"
	"sync/atomic"

	"popana/internal/faultinject"
	"popana/internal/geom"
	"popana/internal/linearquad"
	"popana/internal/quadtree"
)

// snapshot is one atomically-published frozen view of a shard's index.
// frozen == nil records a freeze attempt that failed (tree too deep, or
// an injected rebuild fault) at this epoch, so the shard does not retry
// until more mutations arrive.
type snapshot struct {
	frozen *linearquad.Frozen[Record]
	epoch  uint64
	// delta holds the writes the shard absorbed since epoch, so a stale
	// snapshot still serves range reads. It is written only under the
	// shard write lock and read only under a read lock; the lock-free
	// path never touches it (a fresh snapshot's delta is empty). A
	// rebuild publishes a new snapshot with an empty delta instead of
	// clearing this one: readers beside the rebuild may still hold it.
	delta writeDelta
}

// maxDelta caps a delta's entries whatever the snapshot threshold, so a
// table configured never to rebuild does not make every write and
// every stale read scan an unbounded delta; past the cap reads fall
// back to the live tree.
const maxDelta = 256

// deltaEntry is the net effect, since the snapshot, of the writes at
// one location. Every entry is live, replaces, or both: an insert that
// is deleted again before the next rebuild leaves no entry.
type deltaEntry struct {
	// rec is the record now at rec.Loc when live; a tombstone keeps
	// only its location.
	rec Record
	// live: a record lives at rec.Loc now.
	live bool
	// replaces: the frozen snapshot holds a record at rec.Loc, which
	// this entry supersedes.
	replaces bool
}

// writeDelta is a snapshot's write delta: the frozen records plus the
// live entries, minus the frozen records the entries replace, are
// exactly the shard's live tree.
type writeDelta struct {
	entries []deltaEntry
	// writes counts the epoch bumps recorded since the snapshot. A
	// mutation that bumps the epoch without recording (a failed insert,
	// or a path that never records) leaves the delta short of the
	// epoch, and readers then use the live tree until the next rebuild.
	writes uint64
	// overflow marks a delta that outgrew its bound and was dropped.
	overflow bool
}

// record adds one applied write: a record now lives at rec.Loc (live),
// or the record there was deleted. bound caps the distinct locations.
func (d *writeDelta) record(rec Record, live bool, bound int) {
	d.writes++
	if d.overflow {
		return
	}
	for i := range d.entries {
		e := &d.entries[i]
		if e.rec.Loc != rec.Loc {
			continue
		}
		if !live && !e.replaces {
			// Deleting a record inserted since the snapshot returns the
			// location to what the snapshot holds: nothing.
			last := len(d.entries) - 1
			d.entries[i] = d.entries[last]
			d.entries[last] = deltaEntry{}
			d.entries = d.entries[:last]
			return
		}
		e.rec, e.live = rec, live
		return
	}
	if len(d.entries) >= bound {
		d.overflow = true
		d.entries = nil
		return
	}
	// A location with no entry holds what the snapshot holds, so an
	// insert there found it empty and a delete removed a frozen record.
	d.entries = append(d.entries, deltaEntry{rec: rec, live: live, replaces: !live})
}

// covers reports whether the delta accounts for every write between
// the snapshot's epoch base and the shard's current epoch.
//
//popvet:noalloc
func (d *writeDelta) covers(base, epoch uint64) bool {
	return !d.overflow && base+d.writes == epoch
}

// netIn is the delta's count kernel: the change it makes to the number
// of frozen records inside the closed window — one per live entry
// there, minus one per frozen record it replaces there.
//
//popvet:noalloc
func (d *writeDelta) netIn(window geom.Rect) int {
	n := 0
	for i := range d.entries {
		e := &d.entries[i]
		if e.live == e.replaces || !window.ContainsClosed(e.rec.Loc) {
			continue
		}
		if e.live {
			n++
		} else {
			n--
		}
	}
	return n
}

// replacesIn reports whether the delta replaces a frozen record inside
// the closed box, which a scan of the box must then skip.
//
//popvet:noalloc
func (d *writeDelta) replacesIn(box geom.Rect) bool {
	for i := range d.entries {
		if d.entries[i].replaces && box.ContainsClosed(d.entries[i].rec.Loc) {
			return true
		}
	}
	return false
}

// replaced reports whether the delta replaces the frozen record at p.
func (d *writeDelta) replaced(p geom.Point) bool {
	for i := range d.entries {
		if d.entries[i].replaces && d.entries[i].rec.Loc == p {
			return true
		}
	}
	return false
}

// shard is one spatial partition of a table: the records whose level-k
// cell of the table region has this shard's locational code. Each shard
// owns its own quadtree, mutex, mutation counter, and epoch-stamped
// frozen snapshot, so writes to one region of space never contend with
// writes — or snapshot rebuilds — in another.
type shard struct {
	// region is this shard's level-k cell and si its index in
	// Table.shards (the cell's locational code); both immutable.
	region geom.Rect
	si     int
	inj    *faultinject.Injector

	// mu guards index. The single table-wide lock order is: shard
	// mutexes in ascending shard index, then id stripes in ascending
	// stripe index; any function that acquires more than one shard
	// mutex must be one of the audited ascending-order helpers named
	// by the directive.
	//popvet:ordered lockShards rlockShards
	mu    sync.RWMutex
	index *quadtree.Tree[Record]

	// coder Morton-encodes points of this shard's region at the deepest
	// grid; shared by the durable merge key and the dirty-cell map so
	// the two never disagree. Immutable after construction.
	coder linearquad.CellCoder
	// dirty marks the level-dirtyLevel cells mutated since the last
	// published snapshot, letting rebuilds splice unchanged leaf runs
	// from the previous frozen copy instead of rewalking the whole
	// tree. Marked under the write lock (every index mutation holds
	// it); read and reset only under rebuildMu.
	dirty *linearquad.Dirty
	// rebuildMu serializes snapshot builds that bypass the rebuilding
	// CAS (compact, checkpoint): FreezeDelta reads dirty and the
	// previous snapshot, and a concurrent Reset under another build
	// would race with it.
	rebuildMu sync.Mutex

	// tail is the lazy-mode write buffer: the shard's WAL tail folded to
	// its net effect per location (an insert or a tombstone), guarded by
	// mu like index. Flush seals it into a delta run and clears it. Nil
	// in non-lazy tables, where index holds the records instead.
	tail map[geom.Point]tailRec

	// count is the record count, maintained under mu but readable
	// lock-free, so Len never queues behind a writer.
	count atomic.Int64
	// epoch counts this shard's mutations (each batched record counts
	// once). Bumped under the write lock before the index changes, so a
	// reader that observes a snapshot matching the current epoch is
	// guaranteed the snapshot reflects every completed write.
	epoch atomic.Uint64
	// snap is the latest frozen snapshot; nil until the first build.
	// The publish-after-build discipline the lock-free read path relies
	// on lives entirely in the accessors named below, and so do the
	// locked loads that record into and read its write delta
	// (recordLocked, viewLocked); popvet's lockdiscipline analyzer
	// rejects any other Load or Store.
	//popvet:accessors loadFresh rebuildLocked maybeRebuildLocked publishRecovered frozenLocked recordLocked viewLocked
	snap atomic.Pointer[snapshot]
	// rebuilding serializes snapshot builds so a thundering herd of
	// stale readers freezes the shard once, not once per reader.
	rebuilding atomic.Bool
}

// loadFresh returns the frozen snapshot and its epoch stamp when the
// snapshot exactly matches the shard's current mutation epoch, (nil, 0)
// otherwise. Lock-free: two atomic loads. The returned epoch lets the
// cross-shard seqlock path revalidate that no write landed while it
// scanned.
//
//popvet:noalloc
func (s *shard) loadFresh() (*linearquad.Frozen[Record], uint64) {
	sn := s.snap.Load()
	if sn != nil && sn.frozen != nil && sn.epoch == s.epoch.Load() {
		return sn.frozen, sn.epoch
	}
	return nil, 0
}

// dirtyLevel is the grid level of each shard's dirty bitmap: 4096
// cells (512 bytes) per shard, roughly leaf granularity for a
// 64k-point shard, so a localized burst of churn dirties a handful of
// cells and the rebuild splices everything else from the previous
// snapshot.
const dirtyLevel = 6

// markDirty records that p's dirty-grid cell mutated. Must be called
// under the shard write lock, alongside the index mutation itself.
func (s *shard) markDirty(p geom.Point) {
	s.dirty.Mark(s.coder.Code(p) >> uint(2*(linearquad.MaxDepth-dirtyLevel)))
}

// rebuildLocked freezes the shard's index and publishes the snapshot.
// The caller must hold s.mu (read or write); under either the epoch is
// stable, so the published snapshot is exact for its stamp. The build
// is incremental: leaf runs of subtrees with no dirty-cell marks are
// spliced from the previous snapshot, and the dirty bitmap is reset
// only when the new snapshot publishes. A failure — a tree too deep to
// Morton-encode, or an injected SnapshotRebuild fault — is published
// as an empty marker so queries fall back to the live tree without
// retrying the freeze until the shard changes again.
func (s *shard) rebuildLocked() (*linearquad.Frozen[Record], error) {
	if err := s.inj.Err(faultinject.SnapshotRebuild); err != nil {
		s.snap.Store(&snapshot{frozen: nil, epoch: s.epoch.Load()})
		return nil, err
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	var prev *linearquad.Frozen[Record]
	if sn := s.snap.Load(); sn != nil {
		prev = sn.frozen
	}
	f, err := linearquad.FreezeDelta(s.index, prev, s.dirty)
	if err == nil {
		s.dirty.Reset()
	}
	s.snap.Store(&snapshot{frozen: f, epoch: s.epoch.Load()})
	return f, err
}

// frozenLocked returns a frozen view of the index for a checkpoint:
// the fresh published snapshot when there is one, an incremental
// (unpublished) freeze otherwise. Unlike rebuildLocked it neither
// fires the SnapshotRebuild fault point nor consumes the dirty marks —
// a checkpoint is an observer, not the snapshot publisher. The caller
// must hold at least the read lock.
func (s *shard) frozenLocked() (*linearquad.Frozen[Record], error) {
	if f, _ := s.loadFresh(); f != nil {
		return f, nil
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	var prev *linearquad.Frozen[Record]
	if sn := s.snap.Load(); sn != nil {
		prev = sn.frozen
	}
	return linearquad.FreezeDelta(s.index, prev, s.dirty)
}

// maybeRebuildLocked rebuilds the snapshot if it is missing or stale by
// at least every mutations, returning a frozen view that matches the
// live index exactly (nil when no rebuild happened or the shard cannot
// be frozen). The caller must hold at least the read lock.
func (s *shard) maybeRebuildLocked(every uint64) *linearquad.Frozen[Record] {
	sn := s.snap.Load()
	e := s.epoch.Load()
	if sn != nil && e-sn.epoch < every {
		return nil
	}
	if !s.rebuilding.CompareAndSwap(false, true) {
		return nil // another reader is already freezing this state
	}
	defer s.rebuilding.Store(false)
	f, _ := s.rebuildLocked()
	return f
}

// recordLocked records an applied write in the published snapshot's
// delta: a record now lives at rec.Loc (live), or the record there was
// deleted. The caller holds the write lock, bumped the epoch once for
// this write, and has already applied it to the tree. every is the
// table's snapshot threshold, which bounds the delta.
func (s *shard) recordLocked(rec Record, live bool, every uint64) {
	sn := s.snap.Load()
	if sn == nil || sn.frozen == nil {
		return
	}
	bound := maxDelta
	if every < maxDelta {
		bound = int(every)
	}
	sn.delta.record(rec, live, bound)
}

// viewLocked returns what a range read scans, without rebuilding: the
// fresh snapshot; the stale snapshot with its write delta; or the live
// tree when no snapshot was published, the last freeze failed, or the
// delta does not cover the shard's writes. The snapshot is loaded once,
// so its frozen copy and delta always match. The caller must hold at
// least the read lock, under which every answer is exact.
//
//popvet:noalloc
func (s *shard) viewLocked() view {
	sn := s.snap.Load()
	if sn == nil || sn.frozen == nil {
		return view{tree: s.index}
	}
	e := s.epoch.Load()
	switch {
	case sn.epoch == e:
		return view{frozen: sn.frozen}
	case !sn.delta.covers(sn.epoch, e):
		return view{tree: s.index}
	case len(sn.delta.entries) == 0:
		return view{frozen: sn.frozen}
	}
	return view{frozen: sn.frozen, delta: &sn.delta}
}

// rangerLocked returns the view a range read scans: the snapshot
// rebuilt just now if the shard crossed the staleness threshold,
// otherwise viewLocked's answer. The threshold therefore bounds the
// delta a stale read merges; the live tree serves only shards without
// a usable snapshot. The caller must hold at least the read lock.
func (s *shard) rangerLocked(every uint64) view {
	if f := s.maybeRebuildLocked(every); f != nil {
		return view{frozen: f}
	}
	return s.viewLocked()
}

// publishRecovered publishes a snapshot reconstructed from a durable
// checkpoint run at the shard's current (recovered) epoch. Called only
// from recovery, before the table is shared, so the fully-built frozen
// copy is published before any reader can load it — the same
// publish-after-build discipline rebuildLocked enforces.
func (s *shard) publishRecovered(f *linearquad.Frozen[Record]) {
	s.dirty.Reset()
	s.snap.Store(&snapshot{frozen: f, epoch: s.epoch.Load()})
}

// compact rebuilds this shard's snapshot immediately under its read
// lock: concurrent queries proceed, writers to this shard wait, and
// other shards are untouched.
func (s *shard) compact() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, err := s.rebuildLocked()
	return err
}

// statsPart returns this shard's contribution to Table.Stats — record
// count, leaf-block count, and local tree height — from the fresh
// snapshot when there is one (lock-free) and from a Census of the live
// tree under the read lock otherwise.
func (s *shard) statsPart() (records, blocks, height int) {
	if f, _ := s.loadFresh(); f != nil {
		return f.Len(), f.Leaves(), f.Depth()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.index.Census()
	return s.index.Len(), c.Leaves, c.Height
}

// lockShards write-locks shards in slice order. Callers must pass
// shards in ascending shard-index order: with every multi-shard
// acquisition ascending (and id stripes always taken after shards),
// two batches whose shard sets overlap cannot deadlock.
func lockShards(ss []*shard) {
	for _, s := range ss {
		s.mu.Lock()
	}
}

func unlockShards(ss []*shard) {
	for i := len(ss) - 1; i >= 0; i-- {
		ss[i].mu.Unlock()
	}
}

// rlockShards read-locks shards in slice order (ascending shard index,
// see lockShards). Holding every target shard's read lock for the whole
// scan is what makes a multi-shard query a consistent cut: an
// InsertBatch holds all its shard write locks until every sub-batch is
// applied, so a reader can never observe half a batch.
//
//popvet:noalloc
func rlockShards(ss []*shard) {
	for _, s := range ss {
		s.mu.RLock()
	}
}

//popvet:noalloc
func runlockShards(ss []*shard) {
	for i := len(ss) - 1; i >= 0; i-- {
		ss[i].mu.RUnlock()
	}
}

// idStripes is the number of stripes the id→location map is split
// into. Sequential IDs round-robin across stripes, so id-map contention
// stays negligible next to the spatial work.
const idStripes = 16

// idStripe is one lock-striped slice of the id→location map.
type idStripe struct {
	// mu guards m. Taken after any shard mutex, never before; the only
	// function allowed to take more than one stripe is the ascending
	// lockStripes helper.
	//popvet:ordered lockStripes
	mu sync.RWMutex
	m  map[uint64]geom.Point
}

// idIndex maps record ID to location, striped so concurrent inserts of
// unrelated records rarely share a lock.
type idIndex struct {
	stripes [idStripes]idStripe
}

func newIDIndex() *idIndex {
	ix := &idIndex{}
	for i := range ix.stripes {
		ix.stripes[i].m = map[uint64]geom.Point{}
	}
	return ix
}

// stripe returns the stripe owning id.
func (ix *idIndex) stripe(id uint64) *idStripe {
	return &ix.stripes[id%idStripes]
}

// lookup returns id's location under the stripe read lock. Callers must
// not hold the returned location authoritative across other lock
// acquisitions: Delete re-verifies it under the shard lock.
func (ix *idIndex) lookup(id uint64) (geom.Point, bool) {
	st := ix.stripe(id)
	st.mu.RLock()
	defer st.mu.RUnlock()
	p, ok := st.m[id]
	return p, ok
}

// lockStripes write-locks the stripes selected by mask in ascending
// index order; see lockShards for the lock-order rule.
func (ix *idIndex) lockStripes(mask uint32) {
	for i := 0; i < idStripes; i++ {
		if mask&(1<<i) != 0 {
			ix.stripes[i].mu.Lock()
		}
	}
}

func (ix *idIndex) unlockStripes(mask uint32) {
	for i := idStripes - 1; i >= 0; i-- {
		if mask&(1<<i) != 0 {
			ix.stripes[i].mu.Unlock()
		}
	}
}
