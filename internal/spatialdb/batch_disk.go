package spatialdb

// The lazy-mode half of the batch read APIs. The shard partition from
// batch.go carries over unchanged; what differs is how each group is
// resolved. Point probes (GetBatch, ContainsBatch) settle against the
// WAL tail under one read-lock acquisition per shard, then the
// survivors walk the pinned run stack newest-first in Morton order:
// each run's prefix filter is consulted for the whole group before its
// reader is touched, and a run the filter cannot exclude is visited
// once for all surviving probes — per-run batching instead of the
// scalar path's per-probe stack walk. Window batches (CountRangeBatch)
// pin each involved shard once and stream one filtered Z-range scan
// per (shard, window) pair. Lazy paths allocate (cursor merges and
// stack pins always have); the zero-alloc guarantee belongs to the
// in-memory paths.

import (
	"fmt"
	"sort"

	"popana/internal/geom"
)

// resolveTailGet settles what the WAL tail can settle for one shard
// group of a lazy GetBatch and pins the run stack, all under a single
// read-lock acquisition so the tail state and the stack form one
// consistent seal state (the same pairing getLazy relies on). Probes
// the tail does not shadow are staged into sc.pending with their
// Morton codes in sc.codes.
func (t *Table) resolveTailGet(sc *BatchScratch, si, lo, hi int, ids []uint64, out []Record, found []bool) (npend, nfound int, stack []*openRun) {
	s := t.shards[si]
	s.mu.RLock()
	for j := lo; j < hi; j++ {
		i := sc.perm[j]
		loc := sc.locs[i]
		if tr, ok := s.tail[loc]; ok {
			if !tr.tomb && tr.rec.ID == ids[i] {
				out[i] = tr.rec
				found[i] = true
				nfound++
			}
			continue
		}
		sc.pending[npend] = i
		sc.codes[npend] = cellCodeOf(s, loc)
		npend++
	}
	if npend > 0 {
		stack = t.dur.shards[si].acquireStack()
	}
	s.mu.RUnlock()
	return npend, nfound, stack
}

// getBatchLazy serves GetBatch on a lazy table. Within each shard
// group the unresolved probes are sorted by Morton code, then the run
// stack is walked newest-first: per run, the group interval
// [codes[0], codes[last]] and each surviving probe consult the run's
// prefix filter before any block is read, and all of the run's lookups
// happen together while its blocks are hot in the cache. A probe is
// settled by the newest run that holds its key — record, tombstone, or
// foreign ID all stop the walk for that probe, exactly like getLazy.
func (t *Table) getBatchLazy(sc *BatchScratch, ids []uint64, out []Record, found []bool) int {
	n := len(ids)
	ns := len(t.shards)
	sc.ensureProbes(n)
	sc.ensureShards(ns)
	t.stageByID(sc, ids, found)
	sc.scatterByShard(n, ns)
	nfound := 0
	for si := 0; si < ns; si++ {
		lo, hi := int(sc.starts[si]), int(sc.starts[si+1])
		if lo == hi {
			continue
		}
		npend, nf, stack := t.resolveTailGet(sc, si, lo, hi, ids, out, found)
		nfound += nf
		if npend == 0 {
			continue
		}
		pend := sc.pending[:npend]
		codes := sc.codes[:npend]
		sort.Sort(pendingByCode{pend, codes})
		pruned, consulted := 0, 0
		for r := len(stack) - 1; r >= 0 && len(pend) > 0; r-- {
			rd := stack[r].reader
			if !rd.MayContainRange(codes[0], codes[len(codes)-1]) {
				pruned++
				continue
			}
			touched := false
			keep := 0
			for k := range pend {
				i := pend[k]
				loc := sc.locs[i]
				if !rd.MayContain(codes[k]) {
					pend[keep], codes[keep] = pend[k], codes[k]
					keep++
					continue
				}
				touched = true
				e, ok, err := rd.Find(codes[k], loc.X, loc.Y)
				if err != nil {
					continue // settled: read errors report "not found", like Get
				}
				if !ok {
					pend[keep], codes[keep] = pend[k], codes[k]
					keep++
					continue
				}
				if !e.Tombstone && e.ID == ids[i] {
					if data, derr := decodePayload(e.Payload); derr == nil {
						out[i] = Record{ID: ids[i], Loc: loc, Data: data}
						found[i] = true
						nfound++
					}
				}
			}
			if touched {
				consulted++
			} else {
				pruned++
			}
			pend, codes = pend[:keep], codes[:keep]
		}
		releaseRuns(stack)
		t.dur.notePruning(pruned, consulted)
	}
	// Misses get their zero Record in one pass at the end, matching
	// getBatchMem's contract without zeroing the whole array up front.
	for i := 0; i < n; i++ {
		if !found[i] {
			out[i] = Record{}
		}
	}
	return nfound
}

// pendingByCode co-sorts a shard group's unresolved probes by Morton
// code, so each run is probed in its on-disk order.
type pendingByCode struct {
	pend  []int32
	codes []uint64
}

func (p pendingByCode) Len() int           { return len(p.pend) }
func (p pendingByCode) Less(i, j int) bool { return p.codes[i] < p.codes[j] }
func (p pendingByCode) Swap(i, j int) {
	p.pend[i], p.pend[j] = p.pend[j], p.pend[i]
	p.codes[i], p.codes[j] = p.codes[j], p.codes[i]
}

// containsBatchLazy serves ContainsBatch on a lazy table with the same
// tail-then-filtered-stack walk as getBatchLazy; presence is decided
// by the newest run holding the key (tombstone = absent), so no
// payload is ever decoded.
func (t *Table) containsBatchLazy(sc *BatchScratch, pts []geom.Point, found []bool) int {
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
	for si := 0; si < ns; si++ {
		lo, hi := int(sc.starts[si]), int(sc.starts[si+1])
		if lo == hi {
			continue
		}
		s := t.shards[si]
		npend := 0
		s.mu.RLock() //popvet:allow lockdiscipline -- one shard held at a time: released before the next group, never two shards at once
		for j := lo; j < hi; j++ {
			i := sc.perm[j]
			if tr, ok := s.tail[sc.locs[i]]; ok {
				if !tr.tomb {
					found[i] = true
					npresent++
				}
				continue
			}
			sc.pending[npend] = i
			sc.codes[npend] = cellCodeOf(s, sc.locs[i])
			npend++
		}
		var stack []*openRun
		if npend > 0 {
			stack = t.dur.shards[si].acquireStack()
		}
		s.mu.RUnlock()
		if npend == 0 {
			continue
		}
		pend := sc.pending[:npend]
		codes := sc.codes[:npend]
		sort.Sort(pendingByCode{pend, codes})
		pruned, consulted := 0, 0
		for r := len(stack) - 1; r >= 0 && len(pend) > 0; r-- {
			rd := stack[r].reader
			if !rd.MayContainRange(codes[0], codes[len(codes)-1]) {
				pruned++
				continue
			}
			touched := false
			keep := 0
			for k := range pend {
				i := pend[k]
				loc := sc.locs[i]
				if !rd.MayContain(codes[k]) {
					pend[keep], codes[keep] = pend[k], codes[k]
					keep++
					continue
				}
				touched = true
				e, ok, err := rd.Find(codes[k], loc.X, loc.Y)
				if err != nil {
					continue // settled as absent, like lazyOccupied
				}
				if !ok {
					pend[keep], codes[keep] = pend[k], codes[k]
					keep++
					continue
				}
				if !e.Tombstone {
					found[i] = true
					npresent++
				}
			}
			if touched {
				consulted++
			} else {
				pruned++
			}
			pend, codes = pend[:keep], codes[:keep]
		}
		releaseRuns(stack)
		t.dur.notePruning(pruned, consulted)
	}
	return npresent
}

// countRangeBatchLazy serves CountRangeBatch on a lazy table: every
// involved shard is pinned once for the whole batch, then each
// (shard, window) pair streams one countDisk — whose scanZRange
// consults the run filters over the window's Z-interval, so runs with
// no codes in range never open a cursor. The per-window counts
// accumulate across shards exactly as a scalar CountRange sums its
// shard scans.
func (t *Table) countRangeBatchLazy(sc *BatchScratch, windows []geom.Rect, counts []int) error {
	ns := len(t.shards)
	sc.ensureShards(ns)
	sc.ensureWindows(len(windows), len(windows)*ns)
	t.stageWindows(sc, windows)
	targets := make([]*shard, 0, ns)
	for s := 0; s < ns; s++ {
		if sc.starts[s] != sc.starts[s+1] {
			targets = append(targets, t.shards[s])
		}
	}
	if len(targets) == 0 {
		return nil
	}
	views := t.pinShards(targets)
	defer releaseViews(views)
	t.fireCursorSeal(targets)
	for vi, s := range targets {
		for j := int(sc.starts[s.si]); j < int(sc.starts[s.si+1]); j++ {
			w := int(sc.perm[j])
			st, err := t.countDisk(&views[vi], windows[w], 0)
			if err != nil {
				return fmt.Errorf("spatialdb: count batch in %q: %w", t.name, err)
			}
			counts[w] += st.Matched
		}
	}
	return nil
}
