package spatialdb

import (
	"errors"
	"testing"

	"popana/internal/faultinject"
	"popana/internal/geom"
	"popana/internal/wal"
)

// TestDurableSyncFailurePoisons: with SyncAppends on, a write whose WAL
// fsync fails is not acknowledged, the shard's log is poisoned so later
// writes fail too instead of trusting a retried fsync, and a reopen
// recovers exactly the acknowledged writes — not the frame whose sync
// failed.
func TestDurableSyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	opts := TableOptions{Capacity: 4, ShardBits: SingleShard}
	inj := faultinject.New(11)
	db := NewDB()
	db.SetFaultInjector(inj)
	tab, err := db.CreateDurableTable("sync", opts, DurableOptions{Dir: dir, SyncAppends: true})
	if err != nil {
		t.Fatal(err)
	}
	control := controlFor(t, opts, nil)
	loc := func(i int) geom.Point { return geom.Pt(float64(i%37)/37+0.001, float64(i/37)/37+0.001) }
	for i := 0; i < 40; i++ {
		rec := Record{ID: uint64(i + 1), Loc: loc(i), Data: durablePayload(i)}
		if err := tab.Insert(rec); err != nil {
			t.Fatal(err)
		}
		if err := control.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(1); id <= 40; id += 7 {
		if ok, err := tab.DeleteChecked(id); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", id, ok, err)
		}
		control.Delete(id)
	}

	inj.EnableN(faultinject.WALSyncFail, 1, 1)
	lost := Record{ID: 100, Loc: loc(100), Data: durablePayload(100)}
	if err := tab.Insert(lost); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("insert over a failed sync = %v, want the injected fault", err)
	}
	if _, ok := tab.Get(lost.ID); ok {
		t.Fatal("unacknowledged insert is visible")
	}
	if err := tab.Insert(Record{ID: 101, Loc: loc(101)}); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("insert after a failed sync = %v, want wal.ErrPoisoned", err)
	}
	if _, err := tab.DeleteChecked(2); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("delete after a failed sync = %v, want wal.ErrPoisoned", err)
	}

	tab.Kill()
	if err := db.DropTable("sync"); err != nil {
		t.Fatal(err)
	}
	reopened, err := db.OpenDurableTable("sync", TableOptions{}, DurableOptions{Dir: dir, SyncAppends: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, "reopened after failed sync", reopened, control)
	if _, ok := reopened.Get(lost.ID); ok {
		t.Fatal("the insert whose sync failed was recovered")
	}
	// The reopened log is healthy again.
	if err := reopened.Insert(lost); err != nil {
		t.Fatalf("insert after reopen: %v", err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableFlushHealsSyncPoison: a Flush after a failed sync seals the
// synced records into a run and restarts the poisoned WAL, so the shard
// takes writes again; a reopen then recovers exactly the acknowledged
// writes.
func TestDurableFlushHealsSyncPoison(t *testing.T) {
	dir := t.TempDir()
	opts := TableOptions{Capacity: 4, ShardBits: SingleShard}
	inj := faultinject.New(12)
	db := NewDB()
	db.SetFaultInjector(inj)
	tab, err := db.CreateDurableTable("heal", opts, DurableOptions{Dir: dir, SyncAppends: true})
	if err != nil {
		t.Fatal(err)
	}
	control := controlFor(t, opts, nil)
	insert := func(i int) error {
		rec := Record{ID: uint64(i + 1), Loc: geom.Pt(float64(i)/64+0.001, 0.5), Data: durablePayload(i)}
		err := tab.Insert(rec)
		if err == nil {
			if cerr := control.Insert(rec); cerr != nil {
				t.Fatal(cerr)
			}
		}
		return err
	}
	for i := 0; i < 20; i++ {
		if err := insert(i); err != nil {
			t.Fatal(err)
		}
	}
	inj.EnableN(faultinject.WALSyncFail, 1, 1)
	if err := insert(20); err == nil {
		t.Fatal("insert over a failed sync succeeded")
	}
	if err := tab.Flush(); err != nil {
		t.Fatalf("flush of a poisoned shard: %v", err)
	}
	for i := 21; i < 30; i++ {
		if err := insert(i); err != nil {
			t.Fatalf("insert %d after the flush: %v", i, err)
		}
	}
	tab.Kill()
	if err := db.DropTable("heal"); err != nil {
		t.Fatal(err)
	}
	reopened, err := db.OpenDurableTable("heal", TableOptions{}, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRecords(t, "reopened after healing flush", reopened, control)
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
}
