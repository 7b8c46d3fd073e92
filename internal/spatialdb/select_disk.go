package spatialdb

// The disk read path of a lazy durable table: the per-shard scans
// behind Select, CountRange, and nearest, which stream a k-way merged
// cursor over each pinned shard's run stack plus its WAL-tail delta,
// jumping over Z-interval gaps with BIGMIN so a window scan loads
// O(matching blocks) rather than the whole interval. A query pins its
// shards once (stack references plus a folded tail snapshot, taken
// under the shard read locks so a cross-shard batch can never be seen
// half-applied; readRange's pinned cut), then scans entirely lock-free
// — flushes and compactions proceed underneath, and the pinned readers
// stay valid until the query releases them.

import (
	"fmt"
	"math"
	"sort"

	"popana/internal/faultinject"
	"popana/internal/geom"
	"popana/internal/linearquad"
	"popana/internal/quadtree"
	"popana/internal/segment"
)

// shardView is one shard's pinned, immutable query view: the run stack
// with references held plus the tail folded to sorted entries.
type shardView struct {
	s    *shard
	runs []*openRun
	tail []segment.Entry
}

// pinShards takes a consistent cut of the target shards (ascending,
// as shardsOverlapping returns them) for a disk query: under every
// target's read lock it folds each tail to sorted entries and acquires
// each run stack. A cross-shard InsertBatch holds all its write locks
// until the last sub-batch lands, so the cut can never straddle a
// batch. The locks are released before scanning; the returned views
// are immutable.
func (t *Table) pinShards(targets []*shard) []shardView {
	rlockShards(targets)
	views := make([]shardView, len(targets))
	for i, s := range targets {
		views[i] = shardView{s: s, runs: t.dur.shards[s.si].acquireStack(), tail: tailEntries(s)}
	}
	runlockShards(targets)
	return views
}

// releaseViews drops the query's run references.
func releaseViews(views []shardView) {
	for _, v := range views {
		releaseRuns(v.runs)
	}
}

// tailEntries folds the shard's tail map to sorted run entries,
// tombstones included — the same shape a flush would seal, so the
// merged cursor treats the tail as the newest delta. The caller holds
// the shard's read lock.
func tailEntries(s *shard) []segment.Entry {
	if len(s.tail) == 0 {
		return nil
	}
	es := make([]segment.Entry, 0, len(s.tail))
	for loc, tr := range s.tail {
		e := segment.Entry{
			Code:      cellCodeOf(s, loc),
			ID:        tr.rec.ID,
			X:         loc.X,
			Y:         loc.Y,
			Tombstone: tr.tomb,
		}
		if !tr.tomb {
			payload, err := encodePayload(tr.rec.Data)
			if err != nil {
				continue // unreachable: payloads were validated before logging
			}
			e.Payload = payload
		}
		es = append(es, e)
	}
	sort.Slice(es, func(a, b int) bool { return es[a].Less(es[b]) })
	return es
}

// fireCursorSeal drives the DiskCursorSeal chaos point: when armed, it
// seals every target shard's WAL tail into a delta run after the query
// pinned its view — the schedule where a cursor mid-merge must keep
// serving the pinned state while the ladder grows underneath it. Called
// with no locks held.
func (t *Table) fireCursorSeal(targets []*shard) {
	if !t.inj.Fire(faultinject.DiskCursorSeal) {
		return
	}
	for _, s := range targets {
		// Best-effort, like the background worker: a failed seal leaves
		// the WAL covering its records.
		_ = t.flushShard(s.si)
	}
}

// scanZRange streams one pinned shard view over the Z-interval of box,
// delivering every entry whose grid cell lies inside the box's cell
// rectangle to visit (which applies the exact floating-point
// predicate). Each pinned run's Morton-prefix filter is consulted over
// the interval first: a run the filter excludes joins no cursor merge
// and loads no block (never-false-negative, so exclusion is exact).
// Entries between matching cells are skipped with BIGMIN jumps
// translated into cursor SeekGE calls, so whole blocks whose code span
// falls in a gap are never read. Cost mapping: NodesVisited counts
// merged entries examined, LeavesVisited blocks consulted,
// RecordsScanned candidates inside the cell rectangle. maxNodes > 0
// bounds the entries examined; exhaustion sets Truncated.
func (t *Table) scanZRange(v *shardView, box geom.Rect, maxNodes int, visit func(segment.Entry) bool) (quadtree.RangeStats, error) {
	var st quadtree.RangeStats
	zmin := v.s.coder.Code(geom.Pt(box.MinX, box.MinY))
	zmax := v.s.coder.Code(geom.Pt(box.MaxX, box.MaxY))
	cxmin, cymin := linearquad.Deinterleave(zmin)
	cxmax, cymax := linearquad.Deinterleave(zmax)

	runCursors := make([]*segment.Cursor, 0, len(v.runs))
	cursors := make([]segment.EntryCursor, 0, len(v.runs)+1)
	pruned := 0
	for _, or := range v.runs {
		if !or.reader.MayContainRange(zmin, zmax) {
			pruned++
			continue
		}
		c := or.reader.Cursor()
		runCursors = append(runCursors, c)
		cursors = append(cursors, c)
	}
	t.dur.notePruning(pruned, len(runCursors))

	if len(v.tail) > 0 {
		cursors = append(cursors, segment.NewSliceCursor(v.tail))
	}
	m := segment.NewMergedCursor(cursors...)
	collect := func() {
		for _, c := range runCursors {
			st.LeavesVisited += c.Stats().BlocksLoaded
		}
	}
	e, ok, err := m.SeekGE(zmin)
	for {
		if err != nil {
			collect()
			return st, err
		}
		if !ok || e.Code > zmax {
			break
		}
		if maxNodes > 0 && st.NodesVisited >= maxNodes {
			st.Truncated = true
			break
		}
		st.NodesVisited++
		cx, cy := linearquad.Deinterleave(e.Code)
		if cx >= cxmin && cx <= cxmax && cy >= cymin && cy <= cymax {
			st.RecordsScanned++
			if !visit(e) {
				break
			}
			e, ok, err = m.Next()
			continue
		}
		// The cell is inside the Z-interval but outside the rectangle:
		// jump to the next code that is inside, or stop if none is left.
		next, okJump := linearquad.BigMin(e.Code, zmin, zmax)
		if !okJump {
			break
		}
		e, ok, err = m.SeekGE(next)
	}
	collect()
	return st, nil
}

// selectShardDisk runs the window or radius scan of q over one pinned
// view, delivering spatially matching decoded records to emit.
func (t *Table) selectShardDisk(v *shardView, q Query, maxNodes int, emit func(Record)) (quadtree.RangeStats, error) {
	within := q.Within
	var r2 float64
	if within != nil {
		r2 = within.Radius * within.Radius
	}
	var verr error
	st, err := t.scanZRange(v, queryBox(q), maxNodes, func(e segment.Entry) bool {
		p := geom.Pt(e.X, e.Y)
		if q.Window != nil {
			if !q.Window.ContainsClosed(p) {
				return true
			}
		} else if p.Dist2(within.At) > r2 {
			return true
		}
		data, derr := decodePayload(e.Payload)
		if derr != nil {
			verr = derr
			return false
		}
		emit(Record{ID: e.ID, Loc: p, Data: data})
		return true
	})
	if err == nil {
		err = verr
	}
	return st, err
}

// countDisk counts one pinned view's records inside the closed window
// without decoding a payload; the count is RangeStats.Matched.
func (t *Table) countDisk(v *shardView, window geom.Rect, maxNodes int) (quadtree.RangeStats, error) {
	cnt := 0
	st, err := t.scanZRange(v, window, maxNodes, func(e segment.Entry) bool {
		if window.ContainsClosed(geom.Pt(e.X, e.Y)) {
			cnt++
		}
		return true
	})
	st.Matched = cnt
	return st, err
}

// nearestDisk serves a k-nearest query from the pinned views with an
// expanding-box search: scan a box around the query point, count the
// candidates confirmed by distance (d2 <= r² — no unseen point outside
// the box can beat a confirmed one, because anything outside is farther
// than r), and double the box until K are confirmed or the box covers
// the region. Results merge by (distance, x, y) — the same
// deterministic order as the in-memory multi-shard path — with
// Query.Filter applied after the top-K cut, matching selectNearest.
func (t *Table) nearestDisk(spec NearestSpec, keep func(Record) bool) ([]Record, Cost, error) {
	views := t.pinShards(t.shards)
	defer releaseViews(views)
	t.fireCursorSeal(t.shards)

	r0 := math.Max(t.region.MaxX-t.region.MinX, t.region.MaxY-t.region.MinY) / 64
	type cand struct {
		e  segment.Entry
		d2 float64
	}
	var cost Cost
	for r := r0; ; r *= 2 {
		box := geom.R(spec.At.X-r, spec.At.Y-r, spec.At.X+r, spec.At.Y+r)
		covers := box.MinX <= t.region.MinX && box.MinY <= t.region.MinY &&
			box.MaxX >= t.region.MaxX && box.MaxY >= t.region.MaxY
		r2 := r * r
		var cands []cand
		for i := range views {
			if !views[i].s.region.OverlapsClosed(box) {
				continue
			}
			st, err := t.scanZRange(&views[i], box, 0, func(e segment.Entry) bool {
				p := geom.Pt(e.X, e.Y)
				if box.ContainsClosed(p) {
					cands = append(cands, cand{e, p.Dist2(spec.At)})
				}
				return true
			})
			addCost(&cost, st)
			if err != nil {
				return nil, cost, fmt.Errorf("spatialdb: select from %q: %w", t.name, err)
			}
		}
		confirmed := 0
		for _, c := range cands {
			if c.d2 <= r2 {
				confirmed++
			}
		}
		if confirmed < spec.K && !covers {
			continue
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].d2 != cands[j].d2 {
				return cands[i].d2 < cands[j].d2
			}
			if cands[i].e.X != cands[j].e.X {
				return cands[i].e.X < cands[j].e.X
			}
			return cands[i].e.Y < cands[j].e.Y
		})
		if len(cands) > spec.K {
			cands = cands[:spec.K]
		}
		out := make([]Record, 0, len(cands))
		for _, c := range cands {
			data, derr := decodePayload(c.e.Payload)
			if derr != nil {
				return nil, cost, fmt.Errorf("spatialdb: select from %q: %w", t.name, derr)
			}
			rec := Record{ID: c.e.ID, Loc: geom.Pt(c.e.X, c.e.Y), Data: data}
			if keep(rec) {
				out = append(out, rec)
			}
		}
		return out, cost, nil
	}
}
