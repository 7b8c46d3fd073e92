package spatialdb

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"popana/internal/faultinject"
	"popana/internal/geom"
	"popana/internal/linearquad"
	"popana/internal/quadtree"
)

// Query is a spatial selection: exactly one of Window, Nearest, or
// Within must be set; Filter optionally post-filters records.
type Query struct {
	// Window selects records inside a closed rectangle.
	Window *geom.Rect
	// Nearest selects the K records closest to At.
	Nearest *NearestSpec
	// Within selects records within Radius of At.
	Within *WithinSpec
	// Filter keeps only records for which it returns true (applied
	// after the spatial predicate). Nil keeps everything. The filter
	// always runs on the querying goroutine — never concurrently, even
	// when the scan fans out across shards — and must not call back
	// into the same table's mutating methods.
	Filter func(Record) bool
	// MaxNodes, when positive, bounds the number of index nodes a
	// window or radius query may visit, summed across every shard it
	// touches. A query that exhausts the budget returns the partial
	// result accumulated so far with Cost.Truncated set, degrading
	// gracefully instead of traversing without bound. Zero means
	// unlimited. Nearest queries ignore it (their work is bounded by
	// K).
	MaxNodes int
}

// NearestSpec parameterizes a k-nearest query.
type NearestSpec struct {
	At geom.Point
	K  int
}

// WithinSpec parameterizes a radius query.
type WithinSpec struct {
	At     geom.Point
	Radius float64
}

// Cost is the measured work of executing a query, summed across every
// shard the query touched.
type Cost struct {
	NodesVisited   int
	LeavesVisited  int
	RecordsScanned int
	// Truncated reports that the query's MaxNodes budget stopped the
	// traversal early; the returned records are a partial result.
	Truncated bool
}

func (q Query) validate() error {
	set := 0
	if q.Window != nil {
		set++
		if err := validateRegion(*q.Window); err != nil {
			return err
		}
	}
	if q.Nearest != nil {
		set++
		if err := validatePoint(q.Nearest.At); err != nil {
			return err
		}
		if q.Nearest.K <= 0 {
			return fmt.Errorf("spatialdb: nearest K %d <= 0", q.Nearest.K)
		}
	}
	if q.Within != nil {
		set++
		if err := validatePoint(q.Within.At); err != nil {
			return err
		}
		if math.IsNaN(q.Within.Radius) || math.IsInf(q.Within.Radius, 0) || q.Within.Radius <= 0 {
			return fmt.Errorf("spatialdb: radius %g must be a positive finite number", q.Within.Radius)
		}
	}
	if set != 1 {
		return fmt.Errorf("spatialdb: query must set exactly one of Window, Nearest, Within (got %d)", set)
	}
	return nil
}

// queryBox returns the bounding rectangle of a window or radius query,
// the rectangle shard pruning and tree traversal both test against.
func queryBox(q Query) geom.Rect {
	if q.Window != nil {
		return *q.Window
	}
	w := q.Within
	return geom.R(w.At.X-w.Radius, w.At.Y-w.Radius, w.At.X+w.Radius, w.At.Y+w.Radius)
}

// view is what a range read scans on one shard: a frozen snapshot,
// the same snapshot overlaid with the writes since it (delta), the
// live tree when no usable snapshot exists, or, on a lazy table, the
// shard's pinned run stack and WAL tail (disk). Exactly one of frozen,
// tree and disk is set. A view is a plain value, so choosing the
// representation per query allocates nothing, and Select and
// CountRange are written once over all four. The methods below serve
// the in-memory three; the per-shard reads send disk views to
// scanZRange.
type view struct {
	frozen *linearquad.Frozen[Record]
	delta  *writeDelta
	tree   *quadtree.Tree[Record]
	disk   *shardView
}

// rangeBudgeted scans the view with the budgeted traversal signature of
// quadtree.Tree.RangeBudgeted. Over a delta it scans the frozen
// snapshot, skipping the records the delta replaces, and then — unless
// the budget cut the scan short — delivers the delta's live records
// inside the query; the delta costs no node visits. A nil visit counts
// without delivering.
func (v view) rangeBudgeted(query geom.Rect, maxNodes int, visit quadtree.Visit[Record]) quadtree.RangeStats {
	if v.tree != nil {
		return v.tree.RangeBudgeted(query, maxNodes, visit)
	}
	d := v.delta
	if d == nil {
		return v.frozen.RangeBudgeted(query, maxNodes, visit)
	}
	skip := d.replacesIn(query)
	skipped, stopped := 0, false
	st := v.frozen.RangeBudgeted(query, maxNodes, func(p geom.Point, r Record) bool {
		if skip && d.replaced(p) {
			skipped++
			return true
		}
		if visit != nil && !visit(p, r) {
			stopped = true
			return false
		}
		return true
	})
	st.Matched -= skipped
	if st.Truncated || stopped {
		return st
	}
	for i := range d.entries {
		e := &d.entries[i]
		if !e.live || !query.ContainsClosed(e.rec.Loc) {
			continue
		}
		st.Matched++
		if visit != nil && !visit(e.rec.Loc, e.rec) {
			break
		}
	}
	return st
}

// countRangeBudgeted counts the view's records inside the closed
// window; the count is RangeStats.Matched. An unbudgeted count over a
// delta is the frozen count kernel plus the delta's net change, with
// no visitor and no allocation.
func (v view) countRangeBudgeted(window geom.Rect, maxNodes int) quadtree.RangeStats {
	switch {
	case v.tree != nil:
		return v.tree.CountRangeBudgeted(window, maxNodes)
	case v.delta == nil:
		return v.frozen.CountRangeBudgeted(window, maxNodes)
	case maxNodes > 0:
		// A budget may stop the scan before it reaches the records the
		// delta replaces, so count what the scan delivers.
		return v.rangeBudgeted(window, maxNodes, nil)
	}
	st := v.frozen.CountRangeBudgeted(window, 0)
	st.Matched += v.delta.netIn(window)
	return st
}

// count is the statistics-free count CountRangeBatch's locked fallback
// uses.
//
//popvet:noalloc
func (v view) count(window geom.Rect) int {
	if v.tree != nil {
		return v.tree.CountRange(window)
	}
	n := v.frozen.CountRange(window)
	if v.delta != nil {
		n += v.delta.netIn(window)
	}
	return n
}

func costOf(st quadtree.RangeStats) Cost {
	return Cost{st.NodesVisited, st.LeavesVisited, st.RecordsScanned, st.Truncated}
}

func addCost(c *Cost, st quadtree.RangeStats) {
	c.NodesVisited += st.NodesVisited
	c.LeavesVisited += st.LeavesVisited
	c.RecordsScanned += st.RecordsScanned
	c.Truncated = c.Truncated || st.Truncated
}

// scanRange runs the window or radius scan of q over idx with the given
// node budget, delivering every spatially matching record to emit (the
// caller applies Query.Filter).
func scanRange(idx view, q Query, maxNodes int, emit func(Record)) quadtree.RangeStats {
	if q.Window != nil {
		return idx.rangeBudgeted(*q.Window, maxNodes, func(_ geom.Point, r Record) bool {
			emit(r)
			return true
		})
	}
	w := q.Within
	r2 := w.Radius * w.Radius
	return idx.rangeBudgeted(queryBox(q), maxNodes, func(p geom.Point, rec Record) bool {
		if p.Dist2(w.At) <= r2 {
			emit(rec)
		}
		return true
	})
}

// forShards runs f(i) for every i in [0, n) on a bounded worker pool of
// min(n, GOMAXPROCS) goroutines. Workers claim indices from an atomic
// counter; callers regain determinism by writing results into slot i
// and merging in index order.
func forShards(n int, f func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// Select executes the query and returns matching records with the
// measured cost. Results of window/radius queries are in shard (Morton)
// order, unspecified within a shard; nearest queries return
// closest-first.
//
// Window and radius queries run through readRange: pruned to the
// shards whose cell touches the query rectangle, served lock-free from
// fresh snapshots when every target has one (revalidated against the
// shard epochs, so the merged result is one consistent cut), otherwise
// under the targets' read locks from each shard's snapshot — merged
// with its write delta when stale — or, without a usable snapshot, its
// live tree. On a lazy table the targets' run stacks and WAL tails are
// pinned instead. MaxNodes holds on every path: budgeted queries scan
// shards sequentially, handing each the budget the previous ones left
// over. Query.Filter runs on the querying goroutine, in shard order,
// once the cut is known to be consistent.
func (t *Table) Select(q Query) ([]Record, Cost, error) {
	if err := q.validate(); err != nil {
		return nil, Cost{}, err
	}
	t.inj.Delay(faultinject.QueryLatency)
	if q.Nearest != nil {
		keep := q.Filter
		if keep == nil {
			keep = func(Record) bool { return true }
		}
		if t.lazyMode() {
			return t.nearestDisk(*q.Nearest, keep)
		}
		return t.selectNearest(*q.Nearest, keep)
	}
	out, _, cost, err := readRange(t, queryBox(q), q.MaxNodes, selectRead{q})
	if err != nil {
		return nil, cost, fmt.Errorf("spatialdb: select from %q: %w", t.name, err)
	}
	return out, cost, nil
}

// rangeRead is the per-shard half of a window or radius read: Select
// (selectRead) and CountRange (countRead) each write it once, and
// readRange drives it over every kind of cut.
type rangeRead[R any] interface {
	// read scans one shard's view with a node budget (0: unlimited).
	// The statistics' Matched is the shard's count of matches. Only a
	// disk view can fail.
	read(t *Table, v view, maxNodes int) (R, quadtree.RangeStats, error)
	// add appends one shard's result to those of the shards before it
	// (the zero R for the first). It runs on the querying goroutine, in
	// shard order, once the cut is known to be consistent.
	add(acc, part R) R
}

// countRead counts the records inside a closed window. The count is
// RangeStats.Matched, which readRange sums, so a shard's result is
// empty.
type countRead geom.Rect

func (w countRead) read(t *Table, v view, maxNodes int) (struct{}, quadtree.RangeStats, error) {
	if v.disk != nil {
		st, err := t.countDisk(v.disk, geom.Rect(w), maxNodes)
		return struct{}{}, st, err
	}
	return struct{}{}, v.countRangeBudgeted(geom.Rect(w), maxNodes), nil
}

func (countRead) add(struct{}, struct{}) struct{} { return struct{}{} }

// selectRead collects the records inside a window or radius query.
type selectRead struct{ q Query }

func (s selectRead) read(t *Table, v view, maxNodes int) ([]Record, quadtree.RangeStats, error) {
	var out []Record
	emit := func(r Record) { out = append(out, r) }
	if v.disk != nil {
		st, err := t.selectShardDisk(v.disk, s.q, maxNodes, emit)
		return out, st, err
	}
	return out, scanRange(v, s.q, maxNodes, emit), nil
}

// add keeps the shard's records that Query.Filter accepts, in place,
// and appends them to out; the first shard's slice becomes the result
// as it is.
func (s selectRead) add(out, part []Record) []Record {
	if s.q.Filter != nil {
		kept := part[:0]
		for _, r := range part {
			if s.q.Filter(r) {
				kept = append(kept, r)
			}
		}
		part = kept
	}
	if out == nil {
		return part
	}
	return append(out, part...)
}

// cut is how a range read reaches its target shards as one consistent
// state; readRange describes the three kinds.
type cut struct {
	targets []*shard
	// pinned holds each target's pinned disk view on a lazy table.
	pinned []shardView
	// locked: the reader holds every target's read lock.
	locked bool
	every  uint64
}

// fresh reports whether every target has a fresh snapshot, without
// which a fresh cut is not worth trying.
func (c cut) fresh() bool {
	for _, s := range c.targets {
		if f, _ := s.loadFresh(); f == nil {
			return false
		}
	}
	return true
}

// view returns the view the cut reads target i through, and for a
// fresh cut the epoch to revalidate; ok=false when a fresh cut finds
// the target stale.
func (c cut) view(i int) (v view, epoch uint64, ok bool) {
	switch {
	case c.pinned != nil:
		return view{disk: &c.pinned[i]}, 0, true
	case c.locked:
		return c.targets[i].rangerLocked(c.every), 0, true
	}
	f, e := c.targets[i].loadFresh()
	return view{frozen: f}, e, f != nil
}

// readRange is the one driver of window and radius reads. It prunes to
// the shards whose cell touches box and takes one consistent cut of
// them, the first of three that applies:
//
//   - pinned, on a lazy table: under the targets' read locks, taken in
//     ascending order, each run stack is pinned and each WAL tail
//     folded (pinShards); the scan then holds no lock.
//   - fresh: every target's fresh snapshot, read with no lock and
//     revalidated against the shard epochs, so the merged result
//     cannot straddle a cross-shard batch; tried twice.
//   - locked: the targets' read locks in ascending order, under which
//     each shard is read through rangerLocked's view. A cross-shard
//     InsertBatch holds all its write locks until the last sub-batch
//     lands, so this cut never sees half a batch either.
//
// A budgeted read (maxNodes > 0) scans the targets in shard order,
// handing each the budget the previous ones left over, so NodesVisited
// never exceeds maxNodes and Truncated keeps its single-tree meaning;
// an unbudgeted one fans out over forShards. The result is the
// per-shard results added in shard order, with the shards' Matched and
// Cost summed.
func readRange[R any, RR rangeRead[R]](t *Table, box geom.Rect, maxNodes int, rd RR) (res R, matched int, cost Cost, err error) {
	c := cut{targets: t.shardsOverlapping(box), every: t.snapEvery}
	if len(c.targets) == 0 {
		return res, 0, Cost{}, nil
	}
	if t.lazyMode() {
		c.pinned = t.pinShards(c.targets)
		defer releaseViews(c.pinned)
		t.fireCursorSeal(c.targets)
		res, matched, cost, _, err = readCut(t, c, maxNodes, rd)
		return res, matched, cost, err
	}
	for attempt := 0; attempt < 2 && c.fresh(); attempt++ {
		if res, matched, cost, ok, err := readCut(t, c, maxNodes, rd); ok {
			return res, matched, cost, err
		}
	}
	c.locked = true
	rlockShards(c.targets)
	defer runlockShards(c.targets)
	res, matched, cost, _, err = readCut(t, c, maxNodes, rd)
	return res, matched, cost, err
}

// shardSlot is one target's part of a multi-shard read.
type shardSlot[R any] struct {
	res R
	st  quadtree.RangeStats
	err error
	// epoch is the epoch a fresh cut loaded the snapshot at; ok=false
	// when it found the shard stale.
	epoch uint64
	ok    bool
}

// readCut reads the targets of cut c with rd and returns the results
// of the shards it scanned, added in shard order, with their summed
// Matched and Cost. ok=false when a fresh cut saw a target change, so
// the read must be retried on another cut.
func readCut[R any, RR rangeRead[R]](t *Table, c cut, maxNodes int, rd RR) (res R, matched int, cost Cost, ok bool, err error) {
	if len(c.targets) == 1 {
		// One snapshot is a consistent cut by itself: no revalidation.
		v, _, ok := c.view(0)
		if !ok {
			return res, 0, Cost{}, false, nil
		}
		r, st, err := rd.read(t, v, maxNodes)
		return rd.add(res, r), st.Matched, costOf(st), true, err
	}
	slots := make([]shardSlot[R], len(c.targets))
	read := func(i, budget int) {
		sl := &slots[i]
		var v view
		if v, sl.epoch, sl.ok = c.view(i); sl.ok {
			sl.res, sl.st, sl.err = rd.read(t, v, budget)
		}
	}
	scanned := len(slots)
	if maxNodes > 0 {
		remaining := maxNodes
		for i := range slots {
			if remaining <= 0 {
				// Budget exhausted with shards still unscanned: the result
				// is partial even though the last scan stopped exactly at
				// its bound.
				cost.Truncated = true
				scanned = i
				break
			}
			read(i, remaining)
			remaining -= slots[i].st.NodesVisited
			if !slots[i].ok || slots[i].err != nil || slots[i].st.Truncated {
				scanned = i + 1
				break
			}
		}
	} else {
		forShards(len(slots), func(i int) { read(i, 0) })
	}
	slots = slots[:scanned]
	for i := range slots {
		if !slots[i].ok || c.pinned == nil && !c.locked && c.targets[i].epoch.Load() != slots[i].epoch {
			return res, 0, Cost{}, false, nil
		}
	}
	for i := range slots {
		sl := &slots[i]
		matched += sl.st.Matched
		addCost(&cost, sl.st)
		if sl.err != nil {
			return res, matched, cost, true, sl.err
		}
		res = rd.add(res, sl.res)
	}
	return res, matched, cost, true, nil
}

// selectNearest serves a k-nearest query. On a multi-shard table every
// shard can hold one of the K nearest, so it takes a consistent cut
// under every shard read lock, collects each shard's local K nearest in
// parallel, and merges them by (distance, x, y) — a deterministic order
// even though worker scheduling is not.
func (t *Table) selectNearest(spec NearestSpec, keep func(Record) bool) ([]Record, Cost, error) {
	if len(t.shards) == 1 {
		s := t.shards[0]
		s.mu.RLock()
		defer s.mu.RUnlock()
		pts := s.index.KNearest(spec.At, spec.K)
		out := make([]Record, 0, len(pts))
		for _, p := range pts {
			if rec, ok := s.index.Get(p); ok && keep(rec) {
				out = append(out, rec)
			}
		}
		// KNearest is not instrumented; report the records touched.
		return out, Cost{RecordsScanned: len(pts)}, nil
	}
	rlockShards(t.shards)
	defer runlockShards(t.shards)
	per := make([][]geom.Point, len(t.shards))
	forShards(len(t.shards), func(i int) {
		per[i] = t.shards[i].index.KNearest(spec.At, spec.K)
	})
	type cand struct {
		p  geom.Point
		d2 float64
	}
	scanned := 0
	cands := make([]cand, 0, 2*spec.K)
	for _, pts := range per {
		scanned += len(pts)
		for _, p := range pts {
			cands = append(cands, cand{p, p.Dist2(spec.At)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d2 != cands[j].d2 {
			return cands[i].d2 < cands[j].d2
		}
		if cands[i].p.X != cands[j].p.X {
			return cands[i].p.X < cands[j].p.X
		}
		return cands[i].p.Y < cands[j].p.Y
	})
	if len(cands) > spec.K {
		cands = cands[:spec.K]
	}
	out := make([]Record, 0, len(cands))
	for _, c := range cands {
		if rec, ok := t.shardOf(c.p).index.Get(c.p); ok && keep(rec) {
			out = append(out, rec)
		}
	}
	return out, Cost{RecordsScanned: scanned}, nil
}

// CountRange returns the number of records inside the closed window
// with the measured cost, without materializing the records. It is
// the same readRange as a window Select — shard pruning, cuts, budget
// hand-down — so Cost.Truncated is reported identically for the same
// window and budget. A fresh shard is counted lock-free by the frozen
// count kernel, a stale one under its read lock as the snapshot's
// count plus its write delta's net change; a count confined to one
// shard allocates nothing either way.
func (t *Table) CountRange(window geom.Rect, maxNodes int) (int, Cost, error) {
	if err := validateRegion(window); err != nil {
		return 0, Cost{}, err
	}
	t.inj.Delay(faultinject.QueryLatency)
	_, n, cost, err := readRange(t, window, maxNodes, countRead(window))
	if err != nil {
		return 0, cost, fmt.Errorf("spatialdb: count in %q: %w", t.name, err)
	}
	return n, cost, nil
}

// Estimate is the model-based prediction Explain produces.
type Estimate struct {
	// Blocks is the expected number of leaf blocks the query touches.
	Blocks float64
	// Records is the expected number of records scanned.
	Records float64
	// Selectivity is the fraction of the table expected to match.
	Selectivity float64
	// Approximate marks estimates derived from the closed-form
	// occupancy heuristic because every solver rung failed at table
	// creation; treat them as order-of-magnitude guidance.
	Approximate bool
	// FromDisk marks an estimate for a table served from sealed runs
	// (DurableOptions.Lazy): Blocks then predicts entry-block reads —
	// cache hits included — rather than in-memory leaf visits.
	FromDisk bool
	// Batched marks an estimate produced by ExplainBatch: Blocks and
	// Records sum over the whole batch, Selectivity averages it.
	Batched bool
	// RunsConsulted and RunsPruned report, for a lazy table, how many
	// serving runs the per-run Morton-prefix filters would admit versus
	// exclude over the query's Z-interval (summed across the batch when
	// Batched). A pruned run costs a scan nothing: no cursor is opened
	// and no block is read. Both are zero for in-memory tables.
	RunsConsulted, RunsPruned int
}

// Explain predicts the cost of a query from the population model before
// running it: the table holds ~n/occ blocks; a window of area fraction
// s touches about s·L interior blocks plus a boundary band of about
// perimeter/blockSide blocks, with blockSide = sqrt(region/L). The
// shard partition does not change the estimate — the population model
// composes across disjoint cells, so blocks-touched is invariant under
// the partition — and Explain takes no tree lock: the record count
// comes from the shards' atomic counters and the region is immutable.
// On a lazy table it additionally consults the serving runs'
// Morton-prefix filters (holding each overlapping shard's stack
// mutex, a leaf lock, just long enough to pin the stack) so
// RunsConsulted and RunsPruned report what a scan would actually
// open.
func (t *Table) Explain(q Query) (Estimate, error) {
	e, err := t.explain(q)
	if err == nil && t.lazyMode() {
		// The population model composes across representations too: the
		// sealed runs pack entries into TargetBlockBytes blocks at the
		// same records-per-block ballpark, so the block estimate carries
		// over; FromDisk tells the caller the unit changed.
		e.FromDisk = true
		if q.Nearest == nil {
			e.RunsConsulted, e.RunsPruned = t.runFilterEstimate(queryBox(q))
		}
	}
	return e, err
}

// ExplainBatch predicts the aggregate cost of answering every window
// of a CountRangeBatch (or an equivalent batched fan-out): the
// per-window model estimates summed, marked Batched. On a lazy table
// the serving runs' Morton-prefix filters are consulted per
// (shard, window) pair over each window's Z-interval, so RunsPruned
// counts the stack entries a batched scan skips without opening a
// cursor — the measured complement of the Blocks estimate.
func (t *Table) ExplainBatch(windows []geom.Rect) (Estimate, error) {
	agg := Estimate{Batched: true, Approximate: t.occApprox}
	for i := range windows {
		w := windows[i]
		e, err := t.explain(Query{Window: &w})
		if err != nil {
			return Estimate{}, fmt.Errorf("spatialdb: explain batch in %q: window %d: %w", t.name, i, err)
		}
		agg.Blocks += e.Blocks
		agg.Records += e.Records
		agg.Selectivity += e.Selectivity
	}
	if len(windows) > 0 {
		agg.Selectivity /= float64(len(windows))
	}
	if t.lazyMode() {
		agg.FromDisk = true
		for i := range windows {
			c, p := t.runFilterEstimate(windows[i])
			agg.RunsConsulted += c
			agg.RunsPruned += p
		}
	}
	return agg, nil
}

// runFilterEstimate counts, per shard overlapping box, the serving
// runs whose prefix filter admits the box's Z-interval versus those it
// excludes — without opening a cursor or reading a block.
func (t *Table) runFilterEstimate(box geom.Rect) (consulted, pruned int) {
	for si, s := range t.shards {
		if !s.region.OverlapsClosed(box) {
			continue
		}
		zmin := s.coder.Code(geom.Pt(box.MinX, box.MinY))
		zmax := s.coder.Code(geom.Pt(box.MaxX, box.MaxY))
		stack := t.dur.shards[si].acquireStack()
		for _, or := range stack {
			if or.reader.MayContainRange(zmin, zmax) {
				consulted++
			} else {
				pruned++
			}
		}
		releaseRuns(stack)
	}
	return consulted, pruned
}

func (t *Table) explain(q Query) (Estimate, error) {
	if err := q.validate(); err != nil {
		return Estimate{}, err
	}
	n := float64(t.Len())
	region := t.region
	if n == 0 {
		return Estimate{Approximate: t.occApprox}, nil
	}
	leaves := math.Max(n/t.occ, 1)
	est := func(w geom.Rect) Estimate {
		// Clip the window to the region.
		minX := math.Max(w.MinX, region.MinX)
		minY := math.Max(w.MinY, region.MinY)
		maxX := math.Min(w.MaxX, region.MaxX)
		maxY := math.Min(w.MaxY, region.MaxY)
		if minX >= maxX || minY >= maxY {
			return Estimate{Approximate: t.occApprox}
		}
		cw, ch := maxX-minX, maxY-minY
		frac := cw * ch / region.Area()
		side := math.Sqrt(region.Area() / leaves) // typical block side
		boundary := 2 * (cw + ch) / side          // blocks straddling the edge
		blocks := math.Min(frac*leaves+boundary+1, leaves)
		return Estimate{
			Blocks:      blocks,
			Records:     blocks * t.occ,
			Selectivity: frac,
			Approximate: t.occApprox,
		}
	}
	switch {
	case q.Window != nil:
		return est(*q.Window), nil
	case q.Within != nil:
		w := q.Within
		e := est(geom.R(w.At.X-w.Radius, w.At.Y-w.Radius, w.At.X+w.Radius, w.At.Y+w.Radius))
		// A disc covers π/4 of its bounding box.
		e.Selectivity *= math.Pi / 4
		return e, nil
	default:
		// K nearest: expect to inspect ~K records plus one block's
		// worth of neighbors.
		k := float64(q.Nearest.K)
		return Estimate{
			Blocks:      math.Min(k/t.occ+1, leaves),
			Records:     k + t.occ,
			Selectivity: k / n,
			Approximate: t.occApprox,
		}, nil
	}
}

// Stats summarizes the table for monitoring: measured occupancy next to
// the model prediction it should hover near.
type Stats struct {
	Records           int
	Blocks            int
	Height            int
	MeasuredOccupancy float64
	ModelOccupancy    float64
	// ModelApproximate marks ModelOccupancy as the closed-form
	// heuristic rather than a solved distribution.
	ModelApproximate bool

	// DiskRuns counts the sealed run files across all shards of a
	// durable table (zero for in-memory tables).
	DiskRuns int
	// CacheHits/CacheMisses/CacheEvictions and CacheUsedBytes /
	// CacheBudgetBytes expose the block cache a lazy table reads
	// through; all zero when the table is not lazy or caching is
	// disabled (DurableOptions.CacheBytes < 0).
	CacheHits, CacheMisses, CacheEvictions int64
	CacheUsedBytes, CacheBudgetBytes       int64
	// RunsConsulted and RunsPruned count, across the table's lifetime,
	// the sealed runs lazy reads opened a cursor or reader on versus
	// the runs their Morton-prefix filters excluded before any block
	// was touched. Their ratio is the measured pruning power of the
	// run filters on this workload.
	RunsConsulted, RunsPruned int64
}

// Stats returns the table's current statistics, aggregated across
// shards: Records and Blocks sum the shards' contributions, Height is
// the shard-key depth plus the tallest shard tree. A shard with a fresh
// snapshot contributes lock-free from the snapshot; only stale shards
// pay a Census walk under their read lock, so monitoring reads rarely
// queue behind writers and never behind writers to other shards.
//
// On a lazy durable table Records comes from the shards' atomic
// counters, Blocks counts entry blocks across the serving run stacks
// (so MeasuredOccupancy is records per disk block), Height is the
// shard-key depth (there is no resident tree), and the Cache* fields
// report the block cache.
func (t *Table) Stats() Stats {
	var st Stats
	if t.lazyMode() {
		rec, blocks := 0, 0
		for si, s := range t.shards {
			rec += int(s.count.Load())
			stack := t.dur.shards[si].acquireStack()
			for _, or := range stack {
				blocks += or.reader.NumBlocks()
			}
			releaseRuns(stack)
		}
		occ := math.NaN()
		if blocks > 0 {
			occ = float64(rec) / float64(blocks)
		}
		st = Stats{
			Records:           rec,
			Blocks:            blocks,
			Height:            t.shardLevels,
			MeasuredOccupancy: occ,
			ModelOccupancy:    t.occ,
			ModelApproximate:  t.occApprox,
		}
	} else {
		var rec, blocks, maxH int
		for _, s := range t.shards {
			r, b, h := s.statsPart()
			rec += r
			blocks += b
			if h > maxH {
				maxH = h
			}
		}
		occ := math.NaN()
		if blocks > 0 {
			occ = float64(rec) / float64(blocks)
		}
		st = Stats{
			Records:           rec,
			Blocks:            blocks,
			Height:            t.shardLevels + maxH,
			MeasuredOccupancy: occ,
			ModelOccupancy:    t.occ,
			ModelApproximate:  t.occApprox,
		}
	}
	if t.dur != nil {
		for _, ds := range t.dur.shards {
			st.DiskRuns += ds.runCount()
		}
		cs := t.dur.cache.Stats()
		st.CacheHits, st.CacheMisses, st.CacheEvictions = cs.Hits, cs.Misses, cs.Evictions
		st.CacheUsedBytes, st.CacheBudgetBytes = cs.Used, cs.Budget
		st.RunsConsulted = t.dur.runsConsulted.Load()
		st.RunsPruned = t.dur.runsPruned.Load()
	}
	return st
}
