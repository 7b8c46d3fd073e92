package spatialdb

import (
	"sort"
	"sync"
	"testing"
	"time"

	"popana/internal/dist"
	"popana/internal/geom"
	"popana/internal/xrand"
)

// fillTable bulk-loads n uniform records and returns the table.
func fillTable(t testing.TB, capacity, n int, seed uint64) *Table {
	t.Helper()
	db := NewDB()
	tab, err := db.CreateTable("snap", capacity, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	src := dist.NewUniform(geom.UnitSquare, xrand.New(seed))
	recs := make([]Record, 0, n)
	seen := map[geom.Point]bool{}
	for len(recs) < n {
		p := src.Next()
		if seen[p] {
			continue
		}
		seen[p] = true
		recs = append(recs, Record{ID: uint64(len(recs)), Loc: p})
	}
	if err := tab.InsertBatch(recs); err != nil {
		t.Fatal(err)
	}
	return tab
}

// allFresh reports whether every shard's snapshot matches its current
// mutation epoch — the table-wide "queries run lock-free" condition.
func allFresh(tab *Table) bool {
	for _, s := range tab.shards {
		if f, _ := s.loadFresh(); f == nil {
			return false
		}
	}
	return true
}

func recordIDs(recs []Record) []uint64 {
	ids := make([]uint64, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestSelectServesFromSnapshotWithoutTableLock is the acceptance test
// for the lock-free read path: with the snapshot fresh and the table's
// write lock HELD by another goroutine, a window Select must still
// complete (served entirely from the snapshot, never touching the
// RWMutex).
func TestSelectServesFromSnapshotWithoutTableLock(t *testing.T) {
	tab := fillTable(t, 8, 5000, 1)
	if err := tab.Compact(); err != nil {
		t.Fatal(err)
	}
	window := geom.R(0.2, 0.2, 0.7, 0.7)
	want, _, err := tab.Select(Query{Window: &window})
	if err != nil {
		t.Fatal(err)
	}

	lockShards(tab.shards) // a writer stalls mid-critical-section on every shard
	done := make(chan struct{})
	var got []Record
	var cost Cost
	var serr error
	go func() {
		defer close(done)
		got, cost, serr = tab.Select(Query{Window: &window})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		unlockShards(tab.shards)
		t.Fatal("Select blocked on a shard RWMutex; snapshot path not lock-free")
	}
	unlockShards(tab.shards)

	if serr != nil {
		t.Fatal(serr)
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot-served Select returned %d records, want %d", len(got), len(want))
	}
	if cost.LeavesVisited == 0 || cost.RecordsScanned == 0 {
		t.Fatalf("snapshot-served Select reported empty cost: %+v", cost)
	}

	// CountRange and Explain share the lock-free path.
	lockShards(tab.shards)
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		if n, _, err := tab.CountRange(window, 0); err != nil || n != len(want) {
			serr = err
		}
		if _, err := tab.Explain(Query{Window: &window}); err != nil {
			serr = err
		}
	}()
	select {
	case <-done2:
	case <-time.After(5 * time.Second):
		unlockShards(tab.shards)
		t.Fatal("CountRange/Explain blocked on a shard RWMutex")
	}
	unlockShards(tab.shards)
	if serr != nil {
		t.Fatal(serr)
	}

	// A budgeted window read takes the same lock-free cut.
	lockShards(tab.shards)
	done3 := make(chan struct{})
	var budRecs []Record
	var budN int
	var selCost, cntCost Cost
	go func() {
		defer close(done3)
		budRecs, selCost, serr = tab.Select(Query{Window: &window, MaxNodes: 50})
		if serr == nil {
			budN, cntCost, serr = tab.CountRange(window, 50)
		}
	}()
	select {
	case <-done3:
	case <-time.After(2 * time.Second):
		unlockShards(tab.shards)
		t.Fatal("budgeted Select/CountRange blocked on a shard RWMutex")
	}
	unlockShards(tab.shards)
	if serr != nil {
		t.Fatal(serr)
	}
	if budN != len(budRecs) || !selCost.Truncated || !cntCost.Truncated ||
		selCost.NodesVisited > 50 || cntCost.NodesVisited != selCost.NodesVisited {
		t.Fatalf("budgeted reads disagree: Select %d records %+v, CountRange %d %+v", len(budRecs), selCost, budN, cntCost)
	}
}

// TestSnapshotStaleFallsBackToLiveTree: after a mutation the snapshot
// is stale, and Select must see the new data immediately (served from
// the live tree under the read lock, never from the stale snapshot).
func TestSnapshotStaleFallsBackToLiveTree(t *testing.T) {
	tab := fillTable(t, 4, 1000, 2)
	if err := tab.Compact(); err != nil {
		t.Fatal(err)
	}
	window := geom.R(0.4, 0.4, 0.6, 0.6)
	before, _, err := tab.Select(Query{Window: &window})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a record dead center; the snapshot predates it.
	if err := tab.Insert(Record{ID: 999999, Loc: geom.Pt(0.5, 0.5)}); err != nil {
		t.Fatal(err)
	}
	after, _, err := tab.Select(Query{Window: &window})
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("stale snapshot served: got %d records, want %d", len(after), len(before)+1)
	}
	// Delete it again; the live tree must be consulted again.
	if !tab.Delete(999999) {
		t.Fatal("delete failed")
	}
	final, _, err := tab.Select(Query{Window: &window})
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != len(before) {
		t.Fatalf("after delete got %d records, want %d", len(final), len(before))
	}
}

// TestSnapshotRebuildAfterThreshold: once a table absorbs snapEvery
// mutations, the next falling-back query rebuilds the snapshot and the
// table returns to lock-free serving.
func TestSnapshotRebuildAfterThreshold(t *testing.T) {
	tab := fillTable(t, 4, 500, 3)
	tab.SetSnapshotThreshold(10)
	window := geom.R(0, 0, 1, 1)

	// First query: no snapshot yet, staleness >= threshold logic treats
	// nil as must-build.
	if _, _, err := tab.Select(Query{Window: &window}); err != nil {
		t.Fatal(err)
	}
	if !allFresh(tab) {
		t.Fatal("first query did not build a snapshot")
	}

	// A few mutations below the threshold: queries serve live, snapshot
	// stays stale.
	for i := 0; i < 5; i++ {
		if err := tab.Insert(Record{ID: uint64(10000 + i), Loc: geom.Pt(0.001+float64(i)*1e-5, 0.001)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := tab.Select(Query{Window: &window}); err != nil {
		t.Fatal(err)
	}
	if allFresh(tab) {
		t.Fatal("snapshot rebuilt below the mutation threshold")
	}

	// Cross the threshold: the next query rebuilds.
	for i := 5; i < 12; i++ {
		if err := tab.Insert(Record{ID: uint64(10000 + i), Loc: geom.Pt(0.001+float64(i)*1e-5, 0.001)}); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, err := tab.Select(Query{Window: &window})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 512 {
		t.Fatalf("got %d records, want 512", len(recs))
	}
	if !allFresh(tab) {
		t.Fatal("snapshot not rebuilt after crossing the mutation threshold")
	}
}

// TestSnapshotSelectEquivalence: snapshot-served and live-served
// Selects return identical record sets for random windows and radius
// queries, with and without budgets and filters.
func TestSnapshotSelectEquivalence(t *testing.T) {
	tab := fillTable(t, 8, 4000, 4)
	rng := xrand.New(5)
	for trial := 0; trial < 300; trial++ {
		x, y := rng.Float64(), rng.Float64()
		w, h := rng.Float64()*0.3, rng.Float64()*0.3
		window := geom.R(x-w/2, y-h/2, x+w/2, y+h/2)
		if window.Empty() {
			continue
		}
		// Live-served (snapshot stale or absent after the churn below).
		liveRecs, liveCost, err := tab.Select(Query{Window: &window})
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Compact(); err != nil {
			t.Fatal(err)
		}
		snapRecs, snapCost, err := tab.Select(Query{Window: &window})
		if err != nil {
			t.Fatal(err)
		}
		li, si := recordIDs(liveRecs), recordIDs(snapRecs)
		if len(li) != len(si) {
			t.Fatalf("window %v: live %d, snapshot %d records", window, len(li), len(si))
		}
		for i := range li {
			if li[i] != si[i] {
				t.Fatalf("window %v: IDs differ at %d", window, i)
			}
		}
		if snapCost.RecordsScanned > liveCost.RecordsScanned {
			t.Fatalf("window %v: snapshot scanned more records (%d) than live (%d)",
				window, snapCost.RecordsScanned, liveCost.RecordsScanned)
		}
		// Radius query equivalence on the snapshot path.
		within := &WithinSpec{At: geom.Pt(x, y), Radius: 0.05 + rng.Float64()*0.1}
		snapR, _, err := tab.Select(Query{Within: within})
		if err != nil {
			t.Fatal(err)
		}
		// Churn one record to force the live path, then compare.
		if err := tab.Insert(Record{ID: uint64(50000 + trial), Loc: geom.Pt(rng.Float64(), rng.Float64())}); err != nil {
			t.Fatal(err)
		}
		tab.Delete(uint64(50000 + trial))
		liveR, _, err := tab.Select(Query{Within: within})
		if err != nil {
			t.Fatal(err)
		}
		lr, sr := recordIDs(liveR), recordIDs(snapR)
		if len(lr) != len(sr) {
			t.Fatalf("radius %v: live %d, snapshot %d", within, len(lr), len(sr))
		}
		for i := range lr {
			if lr[i] != sr[i] {
				t.Fatalf("radius %v: IDs differ at %d", within, i)
			}
		}
	}
}

// TestCountRangeTruncationConsistency: Table.CountRange and a window
// Select with the same budget report the same Truncated flag and the
// same number of matches, on both the live and the snapshot path.
func TestCountRangeTruncationConsistency(t *testing.T) {
	tab := fillTable(t, 2, 3000, 6)
	window := geom.R(0.1, 0.1, 0.9, 0.9)
	for _, budget := range []int{0, 1, 5, 50, 1 << 20} {
		for _, compacted := range []bool{false, true} {
			if compacted {
				if err := tab.Compact(); err != nil {
					t.Fatal(err)
				}
			} else {
				// Force staleness so the live path serves.
				if err := tab.Insert(Record{ID: uint64(70000 + budget), Loc: geom.Pt(xrand.New(uint64(budget+9)).Float64(), 0.99999)}); err != nil {
					t.Fatal(err)
				}
			}
			recs, selCost, err := tab.Select(Query{Window: &window, MaxNodes: budget})
			if err != nil {
				t.Fatal(err)
			}
			n, cntCost, err := tab.CountRange(window, budget)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(recs) {
				t.Fatalf("budget=%d compacted=%v: CountRange %d != Select %d", budget, compacted, n, len(recs))
			}
			if cntCost.Truncated != selCost.Truncated {
				t.Fatalf("budget=%d compacted=%v: Truncated disagrees (count=%v select=%v)",
					budget, compacted, cntCost.Truncated, selCost.Truncated)
			}
			if cntCost.NodesVisited != selCost.NodesVisited {
				t.Fatalf("budget=%d compacted=%v: NodesVisited %d != %d",
					budget, compacted, cntCost.NodesVisited, selCost.NodesVisited)
			}
		}
	}

	// The same agreement on a lazy table, whose disk cut hands the budget
	// down across its pinned shards.
	lazy, _ := buildLazyLadder(t, NewDB(), t.TempDir(), TableOptions{Capacity: 4, ShardBits: 2}, DurableOptions{})
	defer lazy.Close()
	for _, w := range []geom.Rect{window, geom.R(0.3, 0.05, 0.6, 0.95)} {
		for _, budget := range []int{0, 1, 5, 50, 1 << 20} {
			recs, selCost, err := lazy.Select(Query{Window: &w, MaxNodes: budget})
			if err != nil {
				t.Fatal(err)
			}
			n, cntCost, err := lazy.CountRange(w, budget)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(recs) || cntCost.Truncated != selCost.Truncated || cntCost.NodesVisited != selCost.NodesVisited {
				t.Fatalf("lazy window=%v budget=%d: CountRange %d %+v, Select %d %+v", w, budget, n, cntCost, len(recs), selCost)
			}
		}
	}
}

// TestSnapshotConcurrentChurn hammers a table with concurrent writers,
// readers, and compactors under the race detector: every Select must
// return a consistent point-in-time result (no partial batches, no
// torn snapshots).
func TestSnapshotConcurrentChurn(t *testing.T) {
	tab := fillTable(t, 4, 2000, 7)
	tab.SetSnapshotThreshold(16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: churn insert/delete pairs.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(100 + w))
			id := uint64(200000 + w*100000)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := geom.Pt(rng.Float64(), rng.Float64())
				if err := tab.Insert(Record{ID: id, Loc: p}); err == nil {
					tab.Delete(id)
				}
				id++
			}
		}(w)
	}
	// Compactor: rebuilds snapshots continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tab.Compact()
			}
		}
	}()
	// Readers: window selects must always see >= the 2000 stable
	// records that are never deleted... the churned IDs may or may not
	// appear; the stable population must always be complete.
	deadline := time.After(500 * time.Millisecond)
	window := geom.R(0, 0, 1, 1)
	for {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			return
		default:
		}
		recs, _, err := tab.Select(Query{Window: &window})
		if err != nil {
			t.Error(err)
			close(stop)
			wg.Wait()
			return
		}
		stable := 0
		for _, r := range recs {
			if r.ID < 2000 {
				stable++
			}
		}
		if stable != 2000 {
			t.Errorf("select saw %d of 2000 stable records", stable)
			close(stop)
			wg.Wait()
			return
		}
	}
}

// TestCompactTooDeep: a table whose tree exceeds the freezable depth
// reports the error from Compact and keeps serving from the live tree.
func TestCompactTooDeep(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateTable("deep", 1, geom.Rect{})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1.0 / (1 << 38)
	if err := tab.Insert(Record{ID: 1, Loc: geom.Pt(0.1, 0.1)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(Record{ID: 2, Loc: geom.Pt(0.1+eps, 0.1)}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Compact(); err == nil {
		t.Skip("tree not deep enough to exercise ErrTooDeep on this geometry")
	}
	window := geom.R(0, 0, 1, 1)
	recs, _, err := tab.Select(Query{Window: &window})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("live fallback after failed freeze returned %d records, want 2", len(recs))
	}
}
