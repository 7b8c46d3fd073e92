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
// the same snapshot overlaid with the writes since it (delta), or the
// live tree when no usable snapshot exists. Exactly one of frozen and
// tree is set. A view is a plain value, so choosing the representation
// per query allocates nothing, and Select and CountRange are written
// once over all three.
type view struct {
	frozen *linearquad.Frozen[Record]
	delta  *writeDelta
	tree   *quadtree.Tree[Record]
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
// The query first prunes to the shards whose cell touches the query
// rectangle. On quiescent shards — no mutation since their snapshots
// were built — the scan is served from the frozen snapshots without
// acquiring any lock, fanned out across a bounded worker pool and
// revalidated against the shard epochs so the merged result is one
// consistent cut. Otherwise the query takes the target shards' read
// locks (ascending order) and scans each shard's snapshot — merged with
// its write delta when stale — rebuilding snapshots that crossed the
// staleness threshold; only a shard without a usable snapshot is
// scanned through its live tree. Both paths honor MaxNodes — budgeted
// queries scan shards sequentially, handing each shard the budget the
// previous ones left over — and report the same Cost fields.
func (t *Table) Select(q Query) ([]Record, Cost, error) {
	if err := q.validate(); err != nil {
		return nil, Cost{}, err
	}
	t.inj.Delay(faultinject.QueryLatency)
	keep := q.Filter
	if keep == nil {
		keep = func(Record) bool { return true }
	}
	if t.lazyMode() {
		return t.selectLazy(q, keep)
	}
	if q.Nearest != nil {
		return t.selectNearest(*q.Nearest, keep)
	}
	targets := t.shardsOverlapping(queryBox(q))
	switch len(targets) {
	case 0:
		return nil, Cost{}, nil
	case 1:
		out, cost := selectShard(targets[0], t.snapEvery, q, keep)
		return out, cost, nil
	}
	if q.MaxNodes <= 0 {
		if out, cost, ok := t.selectMultiFast(q, targets, keep); ok {
			return out, cost, nil
		}
	}
	out, cost := t.selectMultiLocked(q, targets, keep)
	return out, cost, nil
}

// selectShard serves a query confined to one shard — the layout every
// query sees on a single-shard table, where it is bit-identical to the
// pre-sharding engine: lock-free off a fresh snapshot, else under the
// shard read lock from the shard's view (see rangerLocked).
func selectShard(s *shard, every uint64, q Query, keep func(Record) bool) ([]Record, Cost) {
	var out []Record
	emit := func(r Record) {
		if keep(r) {
			out = append(out, r)
		}
	}
	if f, _ := s.loadFresh(); f != nil {
		return out, costOf(scanRange(view{frozen: f}, q, q.MaxNodes, emit))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return out, costOf(scanRange(s.rangerLocked(every), q, q.MaxNodes, emit))
}

// selectMultiFast serves an unbudgeted multi-shard query from the
// shards' fresh snapshots with no locks: a cross-shard seqlock. It
// loads every target's fresh snapshot with its epoch stamp, scans the
// snapshots in parallel, then revalidates the epochs; if any target
// absorbed a write meanwhile, the merged result could straddle a
// cross-shard batch, so the attempt is retried once and then falls
// back to the locked path. ok=false when a snapshot was stale or the
// epochs kept moving.
func (t *Table) selectMultiFast(q Query, targets []*shard, keep func(Record) bool) ([]Record, Cost, bool) {
	n := len(targets)
	snaps := make([]*linearquad.Frozen[Record], n)
	epochs := make([]uint64, n)
	outs := make([][]Record, n)
	stats := make([]quadtree.RangeStats, n)
	for attempt := 0; attempt < 2; attempt++ {
		for i, s := range targets {
			f, e := s.loadFresh()
			if f == nil {
				return nil, Cost{}, false
			}
			snaps[i], epochs[i] = f, e
		}
		forShards(n, func(i int) {
			outs[i] = outs[i][:0]
			stats[i] = scanRange(view{frozen: snaps[i]}, q, 0, func(r Record) { outs[i] = append(outs[i], r) })
		})
		stable := true
		for i, s := range targets {
			if s.epoch.Load() != epochs[i] {
				stable = false
				break
			}
		}
		if !stable {
			continue
		}
		var out []Record
		var cost Cost
		for i := range outs {
			// Deterministic merge in shard order; Filter runs here, on
			// the querying goroutine.
			for _, r := range outs[i] {
				if keep(r) {
					out = append(out, r)
				}
			}
			addCost(&cost, stats[i])
		}
		return out, cost, true
	}
	return nil, Cost{}, false
}

// selectMultiLocked serves a multi-shard query under all target shard
// read locks (ascending order), which pins one consistent cut: a
// cross-shard InsertBatch holds all its write locks until the last
// sub-batch lands, so no reader on this path can see half a batch.
// Unbudgeted queries scan the shards in parallel; budgeted queries scan
// sequentially in shard order, handing each shard the budget the
// previous ones left over, so NodesVisited never exceeds MaxNodes and
// Truncated keeps its single-tree meaning.
func (t *Table) selectMultiLocked(q Query, targets []*shard, keep func(Record) bool) ([]Record, Cost) {
	rlockShards(targets)
	defer runlockShards(targets)
	if q.MaxNodes > 0 {
		var out []Record
		var cost Cost
		emit := func(r Record) {
			if keep(r) {
				out = append(out, r)
			}
		}
		remaining := q.MaxNodes
		for _, s := range targets {
			if remaining <= 0 {
				// Budget exhausted with shards still unscanned: the
				// result is partial even though the last scan stopped
				// exactly at its bound.
				cost.Truncated = true
				break
			}
			st := scanRange(s.rangerLocked(t.snapEvery), q, remaining, emit)
			addCost(&cost, st)
			remaining -= st.NodesVisited
			if st.Truncated {
				break
			}
		}
		return out, cost
	}
	n := len(targets)
	outs := make([][]Record, n)
	stats := make([]quadtree.RangeStats, n)
	forShards(n, func(i int) {
		stats[i] = scanRange(targets[i].rangerLocked(t.snapEvery), q, 0, func(r Record) { outs[i] = append(outs[i], r) })
	})
	var out []Record
	var cost Cost
	for i := range outs {
		for _, r := range outs[i] {
			if keep(r) {
				out = append(out, r)
			}
		}
		addCost(&cost, stats[i])
	}
	return out, cost
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
// with the measured cost, without materializing the records. It uses
// the same budgeted traversal, shard pruning, budget hand-down, and
// snapshot fast paths as a window Select — Cost.Truncated is reported
// identically for the same window and budget — so on quiescent shards
// it runs lock-free and allocation-free. A stale shard is counted under
// its read lock as the snapshot's count plus its write delta's net
// change, which allocates nothing either.
func (t *Table) CountRange(window geom.Rect, maxNodes int) (int, Cost, error) {
	if err := validateRegion(window); err != nil {
		return 0, Cost{}, err
	}
	t.inj.Delay(faultinject.QueryLatency)
	if t.lazyMode() {
		return t.countLazy(window, maxNodes)
	}
	targets := t.shardsOverlapping(window)
	switch len(targets) {
	case 0:
		return 0, Cost{}, nil
	case 1:
		s := targets[0]
		if f, _ := s.loadFresh(); f != nil {
			st := f.CountRangeBudgeted(window, maxNodes)
			return st.Matched, costOf(st), nil
		}
		s.mu.RLock()
		defer s.mu.RUnlock()
		st := s.rangerLocked(t.snapEvery).countRangeBudgeted(window, maxNodes)
		return st.Matched, costOf(st), nil
	}
	if maxNodes <= 0 {
		if cnt, cost, ok := t.countMultiFast(window, targets); ok {
			return cnt, cost, nil
		}
	}
	cnt, cost := t.countMultiLocked(window, targets, maxNodes)
	return cnt, cost, nil
}

// countMultiFast is the counting twin of selectMultiFast: parallel
// lock-free counts off fresh snapshots, revalidated against the shard
// epochs.
func (t *Table) countMultiFast(window geom.Rect, targets []*shard) (int, Cost, bool) {
	n := len(targets)
	snaps := make([]*linearquad.Frozen[Record], n)
	epochs := make([]uint64, n)
	stats := make([]quadtree.RangeStats, n)
	for attempt := 0; attempt < 2; attempt++ {
		for i, s := range targets {
			f, e := s.loadFresh()
			if f == nil {
				return 0, Cost{}, false
			}
			snaps[i], epochs[i] = f, e
		}
		forShards(n, func(i int) {
			stats[i] = snaps[i].CountRangeBudgeted(window, 0)
		})
		stable := true
		for i, s := range targets {
			if s.epoch.Load() != epochs[i] {
				stable = false
				break
			}
		}
		if !stable {
			continue
		}
		cnt := 0
		var cost Cost
		for i := range stats {
			cnt += stats[i].Matched
			addCost(&cost, stats[i])
		}
		return cnt, cost, true
	}
	return 0, Cost{}, false
}

// countMultiLocked is the counting twin of selectMultiLocked:
// sequential budget hand-down when bounded, parallel otherwise, all
// under the target shards' read locks.
func (t *Table) countMultiLocked(window geom.Rect, targets []*shard, maxNodes int) (int, Cost) {
	rlockShards(targets)
	defer runlockShards(targets)
	if maxNodes > 0 {
		cnt := 0
		var cost Cost
		remaining := maxNodes
		for _, s := range targets {
			if remaining <= 0 {
				cost.Truncated = true
				break
			}
			st := s.rangerLocked(t.snapEvery).countRangeBudgeted(window, remaining)
			cnt += st.Matched
			addCost(&cost, st)
			remaining -= st.NodesVisited
			if st.Truncated {
				break
			}
		}
		return cnt, cost
	}
	n := len(targets)
	stats := make([]quadtree.RangeStats, n)
	forShards(n, func(i int) {
		stats[i] = targets[i].rangerLocked(t.snapEvery).countRangeBudgeted(window, 0)
	})
	cnt := 0
	var cost Cost
	for i := range stats {
		cnt += stats[i].Matched
		addCost(&cost, stats[i])
	}
	return cnt, cost
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
