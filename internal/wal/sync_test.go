package wal

import (
	"errors"
	"fmt"
	"testing"

	"popana/internal/faultinject"
)

// TestSyncFailurePoisons: a failed fsync poisons the log like a failed
// append does. Later appends and syncs report ErrPoisoned instead of
// retrying, and the frames appended since the last good sync are
// dropped, so a reopen recovers exactly the synced prefix.
func TestSyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(5)
	l := openT(t, dir, Options{Injector: inj})
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("synced-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("unsynced")); err != nil {
		t.Fatal(err)
	}
	inj.EnableN(faultinject.WALSyncFail, 1.0, 1)
	if err := l.Sync(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected sync error = %v", err)
	}
	if err := l.Append([]byte("after-poison")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after failed sync = %v, want ErrPoisoned", err)
	}
	// The fault fired once; a retried sync must still not report success.
	if err := l.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("sync after failed sync = %v, want ErrPoisoned", err)
	}
	if got := l.Records(); got != 3 {
		t.Fatalf("Records after failed sync = %d, want the 3 synced", got)
	}
	l.Close()

	l2 := openT(t, dir, Options{})
	defer l2.Close()
	recs, torn := collect(t, l2)
	if torn || len(recs) != 3 {
		t.Fatalf("recovered %d records (torn=%v), want the 3 synced", len(recs), torn)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("synced-%d", i); string(r) != want {
			t.Fatalf("record %d = %q, want %q", i, r, want)
		}
	}
}

// TestTruncateClearsSyncPoison: Truncate after a failed sync restarts
// the log empty and usable, as it does after a torn append.
func TestTruncateClearsSyncPoison(t *testing.T) {
	inj := faultinject.New(6)
	l := openT(t, t.TempDir(), Options{Injector: inj})
	defer l.Close()
	if err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	inj.EnableN(faultinject.WALSyncFail, 1.0, 1)
	if err := l.Sync(); err == nil {
		t.Fatal("injected sync did not fail")
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("fresh")); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync after truncate: %v", err)
	}
}
