package spatialdb

// Batched table reads: GetBatch, ContainsBatch, and CountRangeBatch
// plumb the linearquad kernels through the serving stack. Probes are
// partitioned by Morton shard prefix in one counting-sort pass (shard
// index order IS Z-order of the level-k cells, so the partition is the
// coarse radix of a Z-sort), fanned out to per-shard kernel calls
// through the same snapshot-first/read-lock-fallback ladder the scalar
// paths use, and reassembled in caller order through the permutation
// the partition produced. Point groups resolve as straight Frozen.Get
// sweeps — the frozen leaf directory makes a random point probe one
// table load, so fine-sorting point probes within a shard group costs
// more than it saves (measured; the batch win is the amortized
// synchronization, not probe order). Window groups go through the
// CountRangeBatch kernel, which answers them in Z-order. Every buffer
// lives in a caller-owned BatchScratch, so the steady state allocates
// nothing above the acknowledged growth sites (TestZeroAlloc pins it).
//
// On a lazy durable table the same partition feeds the disk path in
// batch_disk.go: probes are resolved against the WAL tail under one
// read-lock acquisition per shard, and the survivors walk the sealed
// run stack newest-first — consulting each run's Morton-prefix filter
// before touching it, and visiting each surviving run once for the
// whole group rather than once per probe.

import (
	"fmt"

	"popana/internal/geom"
	"popana/internal/linearquad"
)

// BatchScratch carries the reusable buffers of the table-level batch
// read APIs (GetBatch, ContainsBatch, CountRangeBatch). The zero value
// is ready to use; buffers grow to the largest batch passed and are
// reused across calls. A BatchScratch must not be shared between
// concurrent calls — give each serving goroutine its own.
type BatchScratch struct {
	// Per-probe staging: resolved location and owning shard (-1 marks
	// a probe with no record, which skips the partition entirely).
	locs  []geom.Point
	shard []int32
	// Counting-sort partition: probe positions grouped by shard, group
	// start offsets, and the scatter cursors that build them. sperm is
	// the same shape keyed by id stripe, used while staging IDs.
	perm   []int32
	sperm  []int32
	starts []int32
	fill   []int32
	// CountRangeBatch: gathered windows, their per-shard counts, and
	// the per-window accumulator summed across shards.
	rects []geom.Rect
	wcnts []int
	acc   []int
	// Seqlock state per involved shard.
	snaps  []*linearquad.Frozen[Record]
	epochs []uint64
	locked []*shard
	// Lazy-path staging: per-probe Morton codes and the unresolved
	// worklist that walks the run stack.
	codes   []uint64
	pending []int32
	// lq is the kernel scratch, shared across shard groups — the batch
	// engine reuses one sort buffer for every shard it fans out to.
	lq linearquad.Scratch
}

// ensureProbes sizes the per-probe buffers for a batch of n.
//
//popvet:noalloc
func (sc *BatchScratch) ensureProbes(n int) {
	if cap(sc.locs) < n {
		//popvet:allow allocfree -- the scratch grows once to the largest batch; steady state reuses it (TestZeroAlloc pins 0 allocs/op)
		sc.locs = make([]geom.Point, n)
		//popvet:allow allocfree -- scratch growth, see above
		sc.shard = make([]int32, n)
		//popvet:allow allocfree -- scratch growth, see above
		sc.perm = make([]int32, n)
		//popvet:allow allocfree -- scratch growth, see above
		sc.sperm = make([]int32, n)
		//popvet:allow allocfree -- scratch growth, see above
		sc.codes = make([]uint64, n)
		//popvet:allow allocfree -- scratch growth, see above
		sc.pending = make([]int32, n)
	}
	sc.locs = sc.locs[:n]
	sc.shard = sc.shard[:n]
	sc.perm = sc.perm[:n]
}

// ensureShards sizes the per-shard buffers for a table of ns shards.
//
//popvet:noalloc
func (sc *BatchScratch) ensureShards(ns int) {
	if cap(sc.starts) < ns+1 {
		//popvet:allow allocfree -- the scratch grows once to the shard count; steady state reuses it (TestZeroAlloc pins 0 allocs/op)
		sc.starts = make([]int32, ns+1)
		//popvet:allow allocfree -- scratch growth, see above
		sc.fill = make([]int32, ns)
		//popvet:allow allocfree -- scratch growth, see above
		sc.snaps = make([]*linearquad.Frozen[Record], ns)
		//popvet:allow allocfree -- scratch growth, see above
		sc.epochs = make([]uint64, ns)
		//popvet:allow allocfree -- scratch growth, see above
		sc.locked = make([]*shard, ns)
	}
	sc.starts = sc.starts[:ns+1]
	sc.fill = sc.fill[:ns]
	sc.snaps = sc.snaps[:ns]
	sc.epochs = sc.epochs[:ns]
}

// ensureWindows sizes the window buffers for a batch of nw windows
// whose shard-overlap pairs number at most npairs.
//
//popvet:noalloc
func (sc *BatchScratch) ensureWindows(nw, npairs int) {
	if cap(sc.rects) < nw {
		//popvet:allow allocfree -- the scratch grows once to the largest batch; steady state reuses it (TestZeroAlloc pins 0 allocs/op)
		sc.rects = make([]geom.Rect, nw)
		//popvet:allow allocfree -- scratch growth, see above
		sc.wcnts = make([]int, nw)
		//popvet:allow allocfree -- scratch growth, see above
		sc.acc = make([]int, nw)
	}
	if cap(sc.perm) < npairs {
		//popvet:allow allocfree -- scratch growth, see above
		sc.perm = make([]int32, npairs)
	}
	sc.acc = sc.acc[:nw]
	sc.perm = sc.perm[:npairs]
}

// scatterByShard finishes the counting sort the stagers started:
// sc.starts[s+1] already holds group s's probe count (the stagers
// count as they resolve shards), so one prefix-sum pass and one
// scatter leave group s at sc.perm[sc.starts[s]:sc.starts[s+1]], in
// input order within the group. Probes with shard < 0 are dropped.
//
//popvet:noalloc
func (sc *BatchScratch) scatterByShard(n, ns int) {
	starts := sc.starts[:ns+1]
	for s := 0; s < ns; s++ {
		starts[s+1] += starts[s]
	}
	fill := sc.fill[:ns]
	for s := 0; s < ns; s++ {
		fill[s] = starts[s]
	}
	shard, perm := sc.shard, sc.perm
	for i := 0; i < n; i++ {
		if si := shard[i]; si >= 0 {
			perm[fill[si]] = int32(i)
			fill[si]++
		}
	}
}

// GetBatch looks up every ID of ids, writing the record (or the zero
// Record) to out[i] and presence to found[i], and returns the number
// found. out and found must have the same length as ids; GetBatch
// panics otherwise, as with a mis-sized copy destination. Results are
// identical to calling Get per ID. The probes are partitioned by shard
// in one pass and each shard group is served through one snapshot (or
// one read-lock acquisition), so a batch touches each shard's
// synchronization once instead of once per probe; sc must not be
// shared between concurrent calls. Allocation-free in the steady state
// on an in-memory table once sc has grown to the batch size.
func (t *Table) GetBatch(sc *BatchScratch, ids []uint64, out []Record, found []bool) int {
	if len(out) != len(ids) || len(found) != len(ids) {
		panic("spatialdb: GetBatch: ids, out, found lengths differ")
	}
	if t.lazyMode() {
		return t.getBatchLazy(sc, ids, out, found)
	}
	return t.getBatchMem(sc, ids, out, found)
}

// stageByID resolves every probe ID to its location and owning shard,
// taking each id-stripe read lock once for the whole batch rather than
// once per probe. The probes are counting-sorted by stripe first, so
// each stripe pass touches only its own probes and the map reads run
// back to back: the CPU overlaps their cache misses instead of fencing
// on a lock acquisition per lookup. As a side effect the per-shard
// group counts accumulate into sc.starts[s+1], ready for
// scatterByShard; out is untouched — callers zero the missed entries
// once the batch is resolved.
//
//popvet:noalloc
func (t *Table) stageByID(sc *BatchScratch, ids []uint64, found []bool) {
	n := len(ids)
	ns := len(t.shards)
	starts := sc.starts[:ns+1]
	for s := range starts {
		starts[s] = 0
	}
	shard := sc.shard
	var cnt [idStripes + 1]int32
	for i := 0; i < n; i++ {
		found[i] = false
		shard[i] = -1
		cnt[ids[i]%idStripes+1]++
	}
	for st := 0; st < idStripes; st++ {
		cnt[st+1] += cnt[st]
	}
	sperm := sc.sperm
	fill := cnt // value copy: cnt keeps the group bounds
	for i := 0; i < n; i++ {
		st := ids[i] % idStripes
		sperm[fill[st]] = int32(i)
		fill[st]++
	}
	for st := 0; st < idStripes; st++ {
		if cnt[st] == cnt[st+1] {
			continue
		}
		stripe := &t.ids.stripes[st]
		stripe.mu.RLock() //popvet:allow lockdiscipline -- one stripe held at a time: released before the next acquire, never two stripes at once
		for k := cnt[st]; k < cnt[st+1]; k++ {
			i := sperm[k]
			if loc, ok := stripe.m[ids[i]]; ok {
				si := int32(t.shardIndexOf(loc))
				sc.locs[i] = loc
				shard[i] = si
				starts[si+1]++
			}
		}
		stripe.mu.RUnlock()
	}
}

// getBatchMem serves GetBatch on an in-memory table: stage IDs to
// locations stripe by stripe, partition by shard, then resolve each
// group against its shard's fresh snapshot (lock-free — a snapshot
// that was fresh at load time gives every probe exactly the semantics
// of a scalar Get) with a per-probe authoritative re-check under the
// read lock for misses, mirroring Get's delete/re-insert race note.
// The group resolves as a straight Frozen.Get sweep: the snapshot and
// epoch load happen once per group instead of once per probe, and the
// back-to-back probes let the CPU overlap their cache misses.
//
//popvet:noalloc
func (t *Table) getBatchMem(sc *BatchScratch, ids []uint64, out []Record, found []bool) int {
	n := len(ids)
	ns := len(t.shards)
	sc.ensureProbes(n)
	sc.ensureShards(ns)
	t.stageByID(sc, ids, found)
	sc.scatterByShard(n, ns)
	nfound := 0
	for s := 0; s < ns; s++ {
		lo, hi := int(sc.starts[s]), int(sc.starts[s+1])
		if lo == hi {
			continue
		}
		sh := t.shards[s]
		misses := 0
		if f, _ := sh.loadFresh(); f != nil {
			perm, locs := sc.perm, sc.locs
			for j := lo; j < hi; j++ {
				i := perm[j]
				// GetInto writes straight into the caller's slot; a hit
				// with a foreign ID (delete/re-insert race) leaves found[i]
				// false, so the final miss pass re-zeroes the slot.
				if f.GetInto(locs[i], &out[i]) && out[i].ID == ids[i] {
					found[i] = true
					nfound++
				} else {
					misses++
				}
			}
			if misses == 0 {
				continue
			}
		} else {
			misses = hi - lo
		}
		// Authoritative pass for probes the snapshot could not settle
		// (stale snapshot, or a concurrent delete/re-insert raced the id
		// lookup): the live tree under the read lock, like scalar Get.
		sh.mu.RLock() //popvet:allow lockdiscipline -- one shard held at a time: released before the next group, never two shards at once
		for j := lo; j < hi; j++ {
			i := sc.perm[j]
			if found[i] {
				continue
			}
			if rec, ok := sh.index.Get(sc.locs[i]); ok && rec.ID == ids[i] {
				out[i] = rec
				found[i] = true
				nfound++
			}
		}
		sh.mu.RUnlock()
	}
	// Misses get their zero Record in one pass at the end, instead of
	// zeroing the whole output array up front and overwriting most of it.
	for i := 0; i < n; i++ {
		if !found[i] {
			out[i] = Record{}
		}
	}
	return nfound
}

// ContainsBatch reports in found[i] whether a record occupies exactly
// the point pts[i], and returns the number present. found must have
// the same length as pts; ContainsBatch panics otherwise. Points with
// non-finite coordinates are rejected with ErrInvalidPoint before
// anything is probed. The batch is partitioned by shard in one pass;
// each group is answered from the shard's fresh snapshot when it has
// one and from the live tree under the read lock otherwise.
// Allocation-free in the steady state on an in-memory table once sc
// has grown to the batch size.
func (t *Table) ContainsBatch(sc *BatchScratch, pts []geom.Point, found []bool) (int, error) {
	if len(found) != len(pts) {
		panic("spatialdb: ContainsBatch: pts and found lengths differ")
	}
	for i := range pts {
		if err := validatePoint(pts[i]); err != nil {
			return 0, fmt.Errorf("spatialdb: contains batch in %q: point %d: %w", t.name, i, err)
		}
	}
	if t.lazyMode() {
		return t.containsBatchLazy(sc, pts, found), nil
	}
	return t.containsBatchMem(sc, pts, found), nil
}

// containsBatchMem serves ContainsBatch on an in-memory table. A miss
// against a fresh snapshot is definitive (no id index vouched for the
// point, so there is no race to re-check), which keeps the quiescent
// path lock-free end to end.
//
//popvet:noalloc
func (t *Table) containsBatchMem(sc *BatchScratch, pts []geom.Point, found []bool) int {
	n := len(pts)
	ns := len(t.shards)
	sc.ensureProbes(n)
	sc.ensureShards(ns)
	starts := sc.starts[:ns+1]
	for s := range starts {
		starts[s] = 0
	}
	for i := 0; i < n; i++ {
		found[i] = false
		sc.locs[i] = pts[i]
		si := int32(t.shardIndexOf(pts[i]))
		sc.shard[i] = si
		starts[si+1]++
	}
	sc.scatterByShard(n, ns)
	npresent := 0
	for s := 0; s < ns; s++ {
		lo, hi := int(sc.starts[s]), int(sc.starts[s+1])
		if lo == hi {
			continue
		}
		sh := t.shards[s]
		if f, _ := sh.loadFresh(); f != nil {
			for j := lo; j < hi; j++ {
				i := sc.perm[j]
				if f.Contains(sc.locs[i]) {
					found[i] = true
					npresent++
				}
			}
		} else {
			sh.mu.RLock() //popvet:allow lockdiscipline -- one shard held at a time: released before the next group, never two shards at once
			for j := lo; j < hi; j++ {
				i := sc.perm[j]
				if sh.index.Contains(sc.locs[i]) {
					found[i] = true
					npresent++
				}
			}
			sh.mu.RUnlock()
		}
	}
	return npresent
}

// CountRangeBatch answers every window, writing the number of records
// inside the closed rectangle windows[i] to counts[i] — identical to
// calling CountRange(window, 0) per window. counts must have the same
// length as windows; CountRangeBatch panics otherwise. Degenerate
// windows are rejected with ErrInvalidRegion before anything is
// counted. The whole batch is answered from one consistent cut: a
// cross-shard seqlock over every involved shard's fresh snapshot
// (revalidated against the shard epochs, retried once), falling back
// to the involved shards' read locks in ascending order, under which a
// stale shard is counted from its snapshot plus write delta.
// Allocation-free in the steady state on an in-memory table once sc
// has grown to the batch size.
func (t *Table) CountRangeBatch(sc *BatchScratch, windows []geom.Rect, counts []int) error {
	if len(counts) != len(windows) {
		panic("spatialdb: CountRangeBatch: windows and counts lengths differ")
	}
	for i := range windows {
		if err := validateRegion(windows[i]); err != nil {
			return fmt.Errorf("spatialdb: count batch in %q: window %d: %w", t.name, i, err)
		}
	}
	for i := range counts {
		counts[i] = 0
	}
	if t.lazyMode() {
		return t.countRangeBatchLazy(sc, windows, counts)
	}
	t.countRangeBatchMem(sc, windows, counts)
	return nil
}

// stageWindows builds the shard→windows CSR: group s of sc.perm holds
// the indices of the windows overlapping shard s's cell (the same
// closed-overlap predicate scalar shard pruning uses).
//
//popvet:noalloc
func (t *Table) stageWindows(sc *BatchScratch, windows []geom.Rect) {
	nw := len(windows)
	ns := len(t.shards)
	starts := sc.starts[:ns+1]
	for s := range starts {
		starts[s] = 0
	}
	for s := 0; s < ns; s++ {
		r := t.shards[s].region
		for w := 0; w < nw; w++ {
			if r.OverlapsClosed(windows[w]) {
				starts[s+1]++
			}
		}
	}
	for s := 0; s < ns; s++ {
		starts[s+1] += starts[s]
	}
	fill := sc.fill[:ns]
	for s := 0; s < ns; s++ {
		fill[s] = starts[s]
		r := t.shards[s].region
		for w := 0; w < nw; w++ {
			if r.OverlapsClosed(windows[w]) {
				sc.perm[fill[s]] = int32(w)
				fill[s]++
			}
		}
	}
}

// countRangeBatchMem serves CountRangeBatch on an in-memory table: two
// seqlock attempts over the involved shards' fresh snapshots (per
// shard group the windows go through the CountRangeBatch kernel, which
// answers them in Z-order of their corners), then the locked fallback.
//
//popvet:noalloc
func (t *Table) countRangeBatchMem(sc *BatchScratch, windows []geom.Rect, counts []int) {
	nw := len(windows)
	ns := len(t.shards)
	sc.ensureShards(ns)
	sc.ensureWindows(nw, nw*ns)
	t.stageWindows(sc, windows)
	for attempt := 0; attempt < 2; attempt++ {
		fresh := true
		for s := 0; s < ns && fresh; s++ {
			sc.snaps[s] = nil
			if sc.starts[s] == sc.starts[s+1] {
				continue
			}
			f, e := t.shards[s].loadFresh()
			if f == nil {
				fresh = false
				break
			}
			sc.snaps[s], sc.epochs[s] = f, e
		}
		if !fresh {
			break
		}
		for w := 0; w < nw; w++ {
			sc.acc[w] = 0
		}
		for s := 0; s < ns; s++ {
			lo, hi := int(sc.starts[s]), int(sc.starts[s+1])
			if lo == hi {
				continue
			}
			g := hi - lo
			gr := sc.rects[:g]
			gc := sc.wcnts[:g]
			for j := 0; j < g; j++ {
				gr[j] = windows[sc.perm[lo+j]]
			}
			sc.snaps[s].CountRangeBatch(&sc.lq, gr, gc)
			for j := 0; j < g; j++ {
				sc.acc[sc.perm[lo+j]] += gc[j]
			}
		}
		stable := true
		for s := 0; s < ns; s++ {
			if sc.snaps[s] != nil && t.shards[s].epoch.Load() != sc.epochs[s] {
				stable = false
				break
			}
		}
		if !stable {
			continue
		}
		copy(counts, sc.acc[:nw])
		return
	}
	// Locked fallback: every involved shard's read lock in ascending
	// order pins one consistent cut (the same order every multi-shard
	// acquisition uses).
	nl := 0
	for s := 0; s < ns; s++ {
		if sc.starts[s] != sc.starts[s+1] {
			sc.locked[nl] = t.shards[s]
			nl++
		}
	}
	rlockShards(sc.locked[:nl])
	for w := 0; w < nw; w++ {
		sc.acc[w] = 0
	}
	for s := 0; s < ns; s++ {
		lo, hi := int(sc.starts[s]), int(sc.starts[s+1])
		if lo == hi {
			continue
		}
		// The fresh snapshot, the stale one with its write delta, or the
		// live tree; the fallback never rebuilds.
		v := t.shards[s].viewLocked()
		for j := lo; j < hi; j++ {
			w := int(sc.perm[j])
			sc.acc[w] += v.count(windows[w])
		}
	}
	runlockShards(sc.locked[:nl])
	copy(counts, sc.acc[:nw])
}
