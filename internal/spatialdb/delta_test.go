package spatialdb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"popana/internal/faultinject"
	"popana/internal/geom"
	"popana/internal/xrand"
)

// The write-delta suite: a stale shard serves range reads from its last
// snapshot plus the writes since it. Every test here checks the merged
// answer against a brute-force model of the table.

// deltaModel is the brute-force reference: the live records by ID.
type deltaModel struct {
	recs map[uint64]Record
	locs map[geom.Point]bool
}

func newDeltaModel() *deltaModel {
	return &deltaModel{recs: map[uint64]Record{}, locs: map[geom.Point]bool{}}
}

func (m *deltaModel) put(r Record) {
	m.recs[r.ID] = r
	m.locs[r.Loc] = true
}

func (m *deltaModel) del(id uint64) {
	delete(m.locs, m.recs[id].Loc)
	delete(m.recs, id)
}

// match returns the IDs of the records pred accepts, sorted.
func (m *deltaModel) match(pred func(Record) bool) []uint64 {
	var ids []uint64
	for _, r := range m.recs {
		if pred(r) {
			ids = append(ids, r.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// liveIDs returns the model's IDs sorted, for seeded victim picks.
func (m *deltaModel) liveIDs() []uint64 {
	return m.match(func(Record) bool { return true })
}

// deltaViews counts the table's shards whose range reads a query would
// serve from a snapshot overlaid with a non-empty delta.
func deltaViews(tab *Table) int {
	n := 0
	for _, s := range tab.shards {
		s.mu.RLock()
		if s.viewLocked().delta != nil {
			n++
		}
		s.mu.RUnlock()
	}
	return n
}

// treeViews counts the shards whose range reads would walk the live
// tree.
func treeViews(tab *Table) int {
	n := 0
	for _, s := range tab.shards {
		s.mu.RLock()
		if s.viewLocked().tree != nil {
			n++
		}
		s.mu.RUnlock()
	}
	return n
}

func sameIDs(got []Record, want []uint64) bool {
	g := recordIDs(got)
	if len(g) != len(want) {
		return false
	}
	for i := range g {
		if g[i] != want[i] {
			return false
		}
	}
	return true
}

// subsetIDs reports whether every record of got is in want.
func subsetIDs(got []Record, want []uint64) bool {
	in := make(map[uint64]bool, len(want))
	for _, id := range want {
		in[id] = true
	}
	for _, r := range got {
		if !in[r.ID] {
			return false
		}
	}
	return true
}

// deltaWriter applies seeded writes to a table and its model: inserts
// at fresh locations, deletes, a delete followed by a re-insert at the
// same location under a new ID, and small multi-shard InsertBatch
// sub-batches. Each op reports how many records it wrote.
type deltaWriter struct {
	t      *testing.T
	tab    *Table
	m      *deltaModel
	rng    *xrand.Rand
	nextID uint64
}

func (w *deltaWriter) freshLoc() geom.Point {
	for {
		p := geom.Pt(w.rng.Float64(), w.rng.Float64())
		if !w.m.locs[p] {
			return p
		}
	}
}

func (w *deltaWriter) insert(loc geom.Point) {
	w.nextID++
	r := Record{ID: w.nextID, Loc: loc, Data: int(w.nextID)}
	if err := w.tab.Insert(r); err != nil {
		w.t.Fatal(err)
	}
	w.m.put(r)
}

func (w *deltaWriter) delete(id uint64) {
	if !w.tab.Delete(id) {
		w.t.Fatalf("delete %d failed", id)
	}
	w.m.del(id)
}

// step applies one op of at most budget writes and returns its size.
func (w *deltaWriter) step(budget int) int {
	ids := w.m.liveIDs()
	switch r := w.rng.Intn(10); {
	case r < 3 || len(ids) == 0:
		w.insert(w.freshLoc())
		return 1
	case r < 5:
		w.delete(ids[w.rng.Intn(len(ids))])
		return 1
	case r < 7 && budget >= 2:
		// Delete, then re-insert at the same location with a new ID.
		victim := w.m.recs[ids[w.rng.Intn(len(ids))]]
		w.delete(victim.ID)
		w.insert(victim.Loc)
		return 2
	case r < 8 && budget >= 3:
		// Delete, re-insert at the same location, delete again: the
		// frozen record there must stay gone.
		victim := w.m.recs[ids[w.rng.Intn(len(ids))]]
		w.delete(victim.ID)
		w.insert(victim.Loc)
		w.delete(w.nextID)
		return 3
	case r < 8 && budget >= 2:
		// Insert a record, then delete it again: net nothing.
		w.insert(w.freshLoc())
		w.delete(w.nextID)
		return 2
	default:
		n := 1 + w.rng.Intn(4)
		if n > budget {
			n = budget
		}
		batch := make([]Record, n)
		for i := range batch {
			w.nextID++
			batch[i] = Record{ID: w.nextID, Loc: w.freshLoc(), Data: int(w.nextID)}
			w.m.locs[batch[i].Loc] = true // keep the batch's locations distinct
		}
		if err := w.tab.InsertBatch(batch); err != nil {
			w.t.Fatal(err)
		}
		for _, r := range batch {
			w.m.put(r)
		}
		return n
	}
}

// checkAgainstModel runs every range read the delta serves — window and
// radius Select, with and without Filter and MaxNodes, CountRange, and
// CountRangeBatch — and compares each with the model.
func checkAgainstModel(t *testing.T, label string, tab *Table, m *deltaModel, rng *xrand.Rand) {
	t.Helper()
	var sc BatchScratch
	windows := make([]geom.Rect, 0, 6)
	for q := 0; q < 6; q++ {
		x, y := rng.Float64(), rng.Float64()
		side := 0.02 + rng.Float64()*0.5
		w := geom.R(x-side/2, y-side/2, x+side/2, y+side/2)
		windows = append(windows, w)
		inWin := func(r Record) bool { return w.ContainsClosed(r.Loc) }
		want := m.match(inWin)

		got, cost, err := tab.Select(Query{Window: &w})
		if err != nil {
			t.Fatal(err)
		}
		if cost.Truncated || !sameIDs(got, want) {
			t.Fatalf("%s: window %v: Select %d records, model %d", label, w, len(got), len(want))
		}
		for _, r := range got {
			if mr := m.recs[r.ID]; mr.Loc != r.Loc || mr.Data != r.Data {
				t.Fatalf("%s: window %v: record %d is %+v, model %+v", label, w, r.ID, r, mr)
			}
		}
		n, _, err := tab.CountRange(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("%s: window %v: CountRange %d, model %d", label, w, n, len(want))
		}

		even := func(r Record) bool { return r.ID%2 == 0 }
		got, _, err = tab.Select(Query{Window: &w, Filter: even})
		if err != nil {
			t.Fatal(err)
		}
		if wantEven := m.match(func(r Record) bool { return inWin(r) && even(r) }); !sameIDs(got, wantEven) {
			t.Fatalf("%s: window %v: filtered Select %d records, model %d", label, w, len(got), len(wantEven))
		}

		at, radius := geom.Pt(x, y), side/2
		got, _, err = tab.Select(Query{Within: &WithinSpec{At: at, Radius: radius}})
		if err != nil {
			t.Fatal(err)
		}
		wantR := m.match(func(r Record) bool { return r.Loc.Dist2(at) <= radius*radius })
		if !sameIDs(got, wantR) {
			t.Fatalf("%s: radius %v/%g: Select %d records, model %d", label, at, radius, len(got), len(wantR))
		}

		for _, budget := range []int{1, 7, 60, 1 << 20} {
			part, pc, err := tab.Select(Query{Window: &w, MaxNodes: budget})
			if err != nil {
				t.Fatal(err)
			}
			if !subsetIDs(part, want) || (!pc.Truncated && len(part) != len(want)) {
				t.Fatalf("%s: window %v budget %d: %d records (truncated %v), model %d",
					label, w, budget, len(part), pc.Truncated, len(want))
			}
			cn, cc, err := tab.CountRange(w, budget)
			if err != nil {
				t.Fatal(err)
			}
			if cn != len(part) || cc.Truncated != pc.Truncated || cc.NodesVisited != pc.NodesVisited {
				t.Fatalf("%s: window %v budget %d: CountRange (%d, %v, %d) vs Select (%d, %v, %d)",
					label, w, budget, cn, cc.Truncated, cc.NodesVisited, len(part), pc.Truncated, pc.NodesVisited)
			}
		}
	}
	counts := make([]int, len(windows))
	if err := tab.CountRangeBatch(&sc, windows, counts); err != nil {
		t.Fatal(err)
	}
	for i, w := range windows {
		if want := len(m.match(func(r Record) bool { return w.ContainsClosed(r.Loc) })); counts[i] != want {
			t.Fatalf("%s: CountRangeBatch window %d: %d, model %d", label, i, counts[i], want)
		}
	}
}

// TestDeltaModelCheck: at every staleness from 0 to snapEvery+1 writes
// past a fresh snapshot, every range read matches the brute-force
// model, on a one-shard and a four-shard table. Below the threshold
// the stale shards must actually serve from snapshot plus delta.
func TestDeltaModelCheck(t *testing.T) {
	const snapEvery = 12
	for _, bits := range []int{SingleShard, 1} {
		t.Run(fmt.Sprintf("bits%d", bits), func(t *testing.T) {
			tab, err := NewDB().CreateTableWith("delta", TableOptions{Capacity: 4, ShardBits: bits, SnapshotThreshold: snapEvery})
			if err != nil {
				t.Fatal(err)
			}
			m := newDeltaModel()
			w := &deltaWriter{t: t, tab: tab, m: m, rng: xrand.New(uint64(41 + bits))}
			for i := 0; i < 600; i++ {
				w.insert(w.freshLoc())
			}
			qrng := xrand.New(uint64(43 + bits))
			served := 0
			for round := 0; round < 3; round++ {
				for stale := 0; stale <= snapEvery+1; stale++ {
					if err := tab.Compact(); err != nil {
						t.Fatal(err)
					}
					for done := 0; done < stale; {
						done += w.step(stale - done)
					}
					if treeViews(tab) != 0 && stale < snapEvery {
						t.Fatalf("stale=%d: a shard below the threshold fell back to the live tree", stale)
					}
					served += deltaViews(tab)
					checkAgainstModel(t, fmt.Sprintf("round%d/stale%d", round, stale), tab, m, qrng)
				}
			}
			if served == 0 {
				t.Fatal("no read was served from a snapshot plus delta")
			}
		})
	}
}

// TestDeltaRebuildFaultFallsBack: when a rebuild fails, the published
// failure marker drops the old snapshot and its delta, and reads fall
// back to the live tree — still matching the model — until a rebuild
// succeeds.
func TestDeltaRebuildFaultFallsBack(t *testing.T) {
	const snapEvery = 8
	inj := faultinject.New(3)
	db := NewDB()
	db.SetFaultInjector(inj)
	tab, err := db.CreateTableWith("fault", TableOptions{Capacity: 4, ShardBits: SingleShard, SnapshotThreshold: snapEvery})
	if err != nil {
		t.Fatal(err)
	}
	m := newDeltaModel()
	w := &deltaWriter{t: t, tab: tab, m: m, rng: xrand.New(7)}
	for i := 0; i < 400; i++ {
		w.insert(w.freshLoc())
	}
	qrng := xrand.New(8)
	if err := tab.Compact(); err != nil {
		t.Fatal(err)
	}
	for done := 0; done < snapEvery-2; {
		done += w.step(snapEvery - 2 - done)
	}
	if deltaViews(tab) != 1 {
		t.Fatal("stale shard is not served from snapshot plus delta")
	}
	checkAgainstModel(t, "delta", tab, m, qrng)

	// Cross the threshold with the rebuild fault armed: the first read
	// rebuilds, fails, and publishes the marker.
	inj.Enable(faultinject.SnapshotRebuild, 1)
	for done := 0; done < 4; {
		done += w.step(4 - done)
	}
	checkAgainstModel(t, "rebuild failed", tab, m, qrng)
	if inj.Fired(faultinject.SnapshotRebuild) == 0 {
		t.Fatal("SnapshotRebuild never fired")
	}
	if treeViews(tab) != 1 {
		t.Fatal("after a failed rebuild reads do not fall back to the live tree")
	}
	// More writes: no snapshot to record into, the live tree serves.
	for done := 0; done < 3; {
		done += w.step(3 - done)
	}
	checkAgainstModel(t, "marker", tab, m, qrng)
	if treeViews(tab) != 1 {
		t.Fatal("writes after a failed rebuild revived a delta")
	}

	inj.Disable(faultinject.SnapshotRebuild)
	if err := tab.Compact(); err != nil {
		t.Fatal(err)
	}
	for done := 0; done < 3; {
		done += w.step(3 - done)
	}
	if deltaViews(tab) != 1 {
		t.Fatal("after a good rebuild the delta path did not resume")
	}
	checkAgainstModel(t, "recovered", tab, m, qrng)
}

// TestDeltaBoundFallsBack: a delta holds at most snapEvery locations.
// Past that bound — writes with no read to trigger the rebuild — reads
// use the live tree until the next rebuild.
func TestDeltaBoundFallsBack(t *testing.T) {
	const snapEvery = 6
	tab, err := NewDB().CreateTableWith("bound", TableOptions{Capacity: 4, ShardBits: SingleShard, SnapshotThreshold: snapEvery})
	if err != nil {
		t.Fatal(err)
	}
	m := newDeltaModel()
	w := &deltaWriter{t: t, tab: tab, m: m, rng: xrand.New(17)}
	for i := 0; i < 200; i++ {
		w.insert(w.freshLoc())
	}
	if err := tab.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < snapEvery; i++ {
		w.insert(w.freshLoc())
	}
	if deltaViews(tab) != 1 {
		t.Fatal("a delta at its bound is not served")
	}
	w.insert(w.freshLoc())
	if treeViews(tab) != 1 {
		t.Fatal("a delta past its bound is still served")
	}
	checkAgainstModel(t, "past bound", tab, m, xrand.New(18))
}

// TestDeltaConcurrentChurn races writers, stale-snapshot readers and
// rebuilds. Writers churn insert/delete pairs inside the left half of
// the unit square; readers count the right half, which never changes,
// and the whole square, which holds between base and base+writers
// records at any instant.
func TestDeltaConcurrentChurn(t *testing.T) {
	tab, err := NewDB().CreateTableWith("churn", TableOptions{Capacity: 4, ShardBits: 1, SnapshotThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(29)
	base := make([]Record, 2000)
	for i := range base {
		base[i] = Record{ID: uint64(i), Loc: geom.Pt(rng.Float64(), rng.Float64())}
	}
	if err := tab.InsertBatch(base); err != nil {
		t.Fatal(err)
	}
	right := geom.R(0.5, 0, 1, 1)
	wantRight := 0
	for _, r := range base {
		if right.ContainsClosed(r.Loc) {
			wantRight++
		}
	}
	if err := tab.Compact(); err != nil {
		t.Fatal(err)
	}
	const writers = 2
	var stop atomic.Bool
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			wr := xrand.New(uint64(100 + wi))
			id := uint64(1_000_000 * (wi + 1))
			for !stop.Load() {
				id++
				p := geom.Pt(0.001+wr.Float64()*0.49, wr.Float64())
				if err := tab.Insert(Record{ID: id, Loc: p}); err != nil {
					continue // a base record already holds p
				}
				tab.Delete(id)
			}
		}(wi)
	}
	full := geom.UnitSquare
	var sc BatchScratch
	counts := make([]int, 2)
	for i := 0; i < 3000; i++ {
		n, _, err := tab.CountRange(right, 0)
		if err != nil || n != wantRight {
			t.Errorf("right half: %d (%v), want %d", n, err, wantRight)
			break
		}
		recs, _, err := tab.Select(Query{Window: &right})
		if err != nil || len(recs) != wantRight {
			t.Errorf("right half Select: %d (%v), want %d", len(recs), err, wantRight)
			break
		}
		n, _, err = tab.CountRange(full, 0)
		if err != nil || n < len(base) || n > len(base)+writers {
			t.Errorf("whole square: %d (%v), want %d..%d", n, err, len(base), len(base)+writers)
			break
		}
		if err := tab.CountRangeBatch(&sc, []geom.Rect{right, full}, counts); err != nil ||
			counts[0] != wantRight || counts[1] < len(base) || counts[1] > len(base)+writers {
			t.Errorf("CountRangeBatch: %v (%v)", counts, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestCountRangeSingleShardZeroAlloc: a CountRange confined to one
// shard allocates nothing, whether the shard's snapshot is fresh or
// stale with a write delta.
func TestCountRangeSingleShardZeroAlloc(t *testing.T) {
	tab, err := NewDB().CreateTableWith("alloc", TableOptions{Capacity: 8, ShardBits: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	recs := make([]Record, 4000)
	for i := range recs {
		recs[i] = Record{ID: uint64(i), Loc: geom.Pt(rng.Float64(), rng.Float64())}
	}
	if err := tab.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := tab.Compact(); err != nil {
		t.Fatal(err)
	}
	window := geom.R(0.1, 0.1, 0.3, 0.3) // inside shard 0's cell
	if got := len(tab.shardsOverlapping(window)); got != 1 {
		t.Fatalf("window overlaps %d shards, want 1", got)
	}
	count := func() {
		if _, _, err := tab.CountRange(window, 0); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, count); allocs != 0 {
		t.Errorf("fresh shard: CountRange allocs/op = %v, want 0", allocs)
	}
	for i := 0; i < 5; i++ {
		if err := tab.Insert(Record{ID: uint64(10000 + i), Loc: geom.Pt(0.2+float64(i)*1e-3, 0.2)}); err != nil {
			t.Fatal(err)
		}
	}
	tab.Delete(0)
	if deltaViews(tab) == 0 {
		t.Fatal("the written shard is not stale with a delta")
	}
	if allocs := testing.AllocsPerRun(100, count); allocs != 0 {
		t.Errorf("stale shard: CountRange allocs/op = %v, want 0", allocs)
	}
}
