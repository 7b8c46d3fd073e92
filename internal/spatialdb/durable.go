package spatialdb

// Durable tiered storage: each shard of a durable table owns a
// write-ahead log (package wal) and a ladder of sealed, immutable
// Morton run files (package segment). Mutations append to the shard's
// WAL before touching the in-memory index; Flush folds the WAL into a
// sorted delta run and truncates it; CompactDisk k-way-merges a shard's
// runs into one full run; a graceful Close checkpoints each shard's
// frozen snapshot — leaf index included — so reopening republishes the
// lock-free read path without re-freezing. Crash recovery replays the
// newest durable runs plus the WAL tail, dropping torn frames and
// incomplete multi-shard batches, and rebuilds state bit-identical to a
// table that never crashed.
//
// # Fsync policy
//
// Run files and the manifest are always written via temp-file + fsync +
// rename + directory fsync: a crash leaves either the old file or the
// complete new one. The WAL is synced when a run seals over it (Flush,
// CompactDisk, Close) and optionally on every append
// (DurableOptions.SyncAppends); the default covers the process-crash
// model every chaos suite in this repository uses, while SyncAppends
// extends durability to power loss at a per-mutation fsync cost.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"popana/internal/faultinject"
	"popana/internal/geom"
	"popana/internal/segment"
	"popana/internal/wal"
)

// ErrShardLayoutMismatch is returned by OpenDurableTable when the
// caller pins a shard layout (TableOptions.ShardBits) that differs from
// the one the table was created with: the on-disk runs are keyed by the
// created layout's cells and cannot be served under another.
var ErrShardLayoutMismatch = errors.New("spatialdb: shard layout differs from the durable table's manifest")

// ErrManifestMismatch is returned by OpenDurableTable when a pinned
// option (capacity, region, snapshot threshold) or the table name
// disagrees with the manifest.
var ErrManifestMismatch = errors.New("spatialdb: options differ from the durable table's manifest")

// ErrCorruptRun is returned when recovery meets a sealed run whose
// checksums no longer validate: re-exported from package segment so
// callers match it without importing the storage internals.
var ErrCorruptRun = segment.ErrCorrupt

// ErrTableClosed is returned by durable operations after Close or Kill.
var ErrTableClosed = errors.New("spatialdb: durable table closed")

// DurableOptions parameterizes the durable storage of a table.
type DurableOptions struct {
	// Dir is the directory holding the manifest, per-shard WALs, and run
	// files. Required.
	Dir string
	// AutoFlush, when positive, starts a background worker that folds a
	// shard's WAL into a sealed delta run once the WAL holds at least
	// this many records. Zero disables the worker: flushes happen only
	// via Flush, CompactDisk, and Close, which keeps chaos tests
	// deterministic.
	AutoFlush int
	// CompactAfter, when positive and the worker is running, merges a
	// shard's runs into one full run once it has accumulated this many.
	CompactAfter int
	// SyncAppends fsyncs the WAL after every append, extending the crash
	// contract from process death to power loss.
	SyncAppends bool
	// Lazy serves the table straight from its sealed runs instead of
	// materializing every entry in RAM: OpenDurableTable maps run
	// manifests and block indexes only, queries stream merged cursors
	// over the run stack plus the WAL tail, and the working set is
	// bounded by CacheBytes — tables larger than memory are first-class.
	// The id index stays in RAM (index-in-memory, payload-on-disk).
	Lazy bool
	// CacheBytes bounds the shared block cache a lazy table reads
	// through, in bytes of decoded entry-block payload. Zero selects
	// DefaultCacheBytes; negative disables caching entirely. Ignored
	// unless Lazy is set.
	CacheBytes int64
}

// DefaultCacheBytes is the block-cache budget of a lazy durable table
// when DurableOptions.CacheBytes is zero: 4 MiB, a thousand 4 KiB
// blocks — enough to keep a hot query region resident while staying
// negligible next to the tables lazy mode exists for.
const DefaultCacheBytes = 4 << 20

// durableShard is the storage half of one shard: its WAL and the
// sorted ladder of sealed runs.
type durableShard struct {
	log *wal.Log
	// flushMu serializes flush/compact/checkpoint on this shard; it is
	// ordered strictly before the shard's tree lock and is never held
	// across another shard's locks.
	flushMu sync.Mutex
	// seq is the last run sequence number used (next run gets seq+1);
	// runs lists the current run files ascending by seq. Both guarded by
	// flushMu.
	seq  uint64
	runs []runFile

	// stackMu guards stack, the shard's open run readers in lazy mode,
	// ascending by seq and trimmed to the newest full run onward (older
	// runs are fully shadowed). It is a leaf lock: nothing else is
	// acquired while holding it, so it may be taken under flushMu, the
	// shard tree lock, or neither. Empty in non-lazy tables.
	stackMu sync.Mutex
	stack   []*openRun
}

// runFile identifies one sealed run on disk.
type runFile struct {
	path string
	seq  uint64
	kind segment.Kind
}

// runCount returns the shard's current number of sealed runs.
func (ds *durableShard) runCount() int {
	ds.flushMu.Lock()
	defer ds.flushMu.Unlock()
	return len(ds.runs)
}

// durableTable is the durable state attached to a Table.
type durableTable struct {
	dir  string
	opts DurableOptions
	inj  *faultinject.Injector

	shards []*durableShard

	// lazy marks a table opened with DurableOptions.Lazy: queries are
	// served from the shard run stacks plus the WAL tail instead of the
	// in-memory trees, which stay empty.
	lazy bool
	// cache is the table's shared block cache for lazy reads; nil when
	// caching is disabled (every *segment.Cache method is nil-safe).
	cache *segment.Cache

	// batchLog is the table-level batch-commit log: one opCommit record
	// per batch whose per-shard frames all reached their WALs. A batch is
	// recovered iff its commit survives here — the single-log append
	// makes the commit point atomic. batchMu serializes commit appends
	// against the truncation in maybeTruncateBatchLog; it is taken after
	// shard locks (logBatch) or with none held, never before them.
	batchLog *wal.Log
	batchMu  sync.Mutex

	// batchID numbers multi-shard batches within one WAL generation;
	// re-seeded past the maximum seen ID at recovery.
	batchID atomic.Uint64

	// failedMu guards failedBatches: batches whose WAL append failed on
	// a later shard after succeeding on an earlier one. Their frames are
	// skipped by Flush so a half-logged batch can never leak into a
	// sealed run; a restart recomputes completeness from the WALs
	// directly. The set only grows while the process lives — each entry
	// is one failed batch, so it stays negligible.
	failedMu      sync.Mutex
	failedBatches map[uint64]struct{}

	// runsConsulted and runsPruned count, across the table's lifetime,
	// the sealed runs a lazy read opened a cursor on versus the runs its
	// Morton-prefix filter excluded before any block was touched.
	// Surfaced through Stats and (per query) Explain.
	runsConsulted atomic.Int64
	runsPruned    atomic.Int64

	closed atomic.Bool
	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}
}

func (d *durableTable) walPath(si int) string {
	return filepath.Join(d.dir, fmt.Sprintf("shard-%d.wal", si))
}

func (d *durableTable) batchLogPath() string {
	return filepath.Join(d.dir, "batches.wal")
}

func (d *durableTable) runPath(si int, seq uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("run-%d-%09d.seg", si, seq))
}

// parseRunName inverts runPath.
func parseRunName(name string) (si int, seq uint64, ok bool) {
	var tail string
	if n, err := fmt.Sscanf(name, "run-%d-%d.seg%s", &si, &seq, &tail); err == nil && n == 2 && tail == "" {
		return si, seq, true
	}
	// Sscanf refuses the trailing %s when nothing follows; retry exact.
	if n, err := fmt.Sscanf(name, "run-%d-%d.seg", &si, &seq); err == nil && n == 2 &&
		name == fmt.Sprintf("run-%d-%09d.seg", si, seq) {
		return si, seq, true
	}
	return 0, 0, false
}

// markFailedBatch records a batch whose per-shard WAL appends did not
// all succeed.
func (d *durableTable) markFailedBatch(id uint64) {
	d.failedMu.Lock()
	defer d.failedMu.Unlock()
	d.failedBatches[id] = struct{}{}
}

func (d *durableTable) batchFailed(id uint64) bool {
	d.failedMu.Lock()
	defer d.failedMu.Unlock()
	_, ok := d.failedBatches[id]
	return ok
}

// Durable reports whether the table persists its mutations.
func (t *Table) Durable() bool { return t.dur != nil }

// CreateDurableTable creates a table whose mutations are persisted
// under dopts.Dir: a manifest pins the table's layout, each shard gets
// a write-ahead log, and Flush/Close seal the log into immutable run
// files. The directory must not already hold a durable table — reopen
// an existing one with OpenDurableTable.
func (db *DB) CreateDurableTable(name string, opts TableOptions, dopts DurableOptions) (*Table, error) {
	if dopts.Dir == "" {
		return nil, fmt.Errorf("spatialdb: create durable %q: DurableOptions.Dir required", name)
	}
	region, bits, err := resolveTableShape(name, opts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dopts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("spatialdb: create durable %q: %w", name, err)
	}
	manifestPath := filepath.Join(dopts.Dir, manifestName)
	if _, err := os.Stat(manifestPath); err == nil {
		return nil, fmt.Errorf("spatialdb: create durable %q: %s already holds a durable table (use OpenDurableTable)", name, dopts.Dir)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("spatialdb: table %q already exists", name)
	}
	t, err := db.buildTable(name, opts, region, bits)
	if err != nil {
		return nil, err
	}
	if err := writeManifest(manifestPath, manifest{
		name:      name,
		capacity:  t.capacity,
		shardBits: bits,
		snapEvery: t.snapEvery,
		region:    region,
	}); err != nil {
		return nil, fmt.Errorf("spatialdb: create durable %q: %w", name, err)
	}
	d, err := newDurableState(t, dopts, db.inj)
	if err != nil {
		return nil, fmt.Errorf("spatialdb: create durable %q: %w", name, err)
	}
	t.dur = d
	if d.lazy {
		t.initLazyTails()
	}
	d.startWorker(t)
	db.tables[name] = t
	return t, nil
}

// OpenDurableTable reopens the durable table stored under dopts.Dir,
// recovering its state from the newest sealed runs plus the WAL tail:
// torn run files and torn WAL frames are discarded, incomplete
// multi-shard batches are dropped on every shard, and a run that was
// durably sealed but has since been damaged fails the open with
// ErrCorruptRun. Zero-valued fields of opts default to the manifest;
// pinning a field to a different value than the table was created with
// returns ErrShardLayoutMismatch (sharding) or ErrManifestMismatch
// (anything else).
func (db *DB) OpenDurableTable(name string, opts TableOptions, dopts DurableOptions) (*Table, error) {
	if dopts.Dir == "" {
		return nil, fmt.Errorf("spatialdb: open durable %q: DurableOptions.Dir required", name)
	}
	man, err := readManifest(filepath.Join(dopts.Dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("spatialdb: open durable %q: %w", name, err)
	}
	if name != man.name {
		return nil, fmt.Errorf("spatialdb: open durable %q: %w: directory holds table %q", name, ErrManifestMismatch, man.name)
	}
	if opts.Capacity != 0 && opts.Capacity != man.capacity {
		return nil, fmt.Errorf("spatialdb: open durable %q: %w: capacity %d, created with %d",
			name, ErrManifestMismatch, opts.Capacity, man.capacity)
	}
	if opts.Region != (geom.Rect{}) && opts.Region != man.region {
		return nil, fmt.Errorf("spatialdb: open durable %q: %w: region %v, created with %v",
			name, ErrManifestMismatch, opts.Region, man.region)
	}
	if opts.SnapshotThreshold != 0 && uint64(opts.SnapshotThreshold) != man.snapEvery {
		return nil, fmt.Errorf("spatialdb: open durable %q: %w: snapshot threshold %d, created with %d",
			name, ErrManifestMismatch, opts.SnapshotThreshold, man.snapEvery)
	}
	if opts.ShardBits != 0 {
		bits, err := resolveShardBits(opts.ShardBits)
		if err != nil {
			return nil, fmt.Errorf("spatialdb: open durable %q: %w", name, err)
		}
		if bits != man.shardBits {
			return nil, fmt.Errorf("spatialdb: open durable %q: %w: ShardBits %d resolves to %d shards, created with %d",
				name, ErrShardLayoutMismatch, opts.ShardBits, 1<<(2*bits), 1<<(2*man.shardBits))
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("spatialdb: table %q already exists", name)
	}
	t, err := db.buildTable(name, TableOptions{
		Capacity:          man.capacity,
		SnapshotThreshold: int(man.snapEvery),
	}, man.region, man.shardBits)
	if err != nil {
		return nil, err
	}
	d, err := newDurableState(t, dopts, db.inj)
	if err != nil {
		return nil, fmt.Errorf("spatialdb: open durable %q: %w", name, err)
	}
	t.dur = d
	recover := t.recoverFromDisk
	if d.lazy {
		recover = t.recoverLazyFromDisk
	}
	if err := recover(); err != nil {
		d.closeFiles()
		return nil, fmt.Errorf("spatialdb: open durable %q: %w", name, err)
	}
	d.startWorker(t)
	db.tables[name] = t
	return t, nil
}

// newDurableState opens the per-shard WALs (truncating torn tails) and
// indexes the sealed runs already on disk.
func newDurableState(t *Table, dopts DurableOptions, inj *faultinject.Injector) (*durableTable, error) {
	d := &durableTable{
		dir:           dopts.Dir,
		opts:          dopts,
		inj:           inj,
		lazy:          dopts.Lazy,
		shards:        make([]*durableShard, len(t.shards)),
		failedBatches: map[uint64]struct{}{},
		notify:        make(chan struct{}, 1),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	if dopts.Lazy {
		budget := dopts.CacheBytes
		if budget == 0 {
			budget = DefaultCacheBytes
		}
		d.cache = segment.NewCache(budget) // nil when budget < 0: caching off
	}
	entries, err := os.ReadDir(dopts.Dir)
	if err != nil {
		return nil, err
	}
	if d.batchLog, err = wal.Open(d.batchLogPath(), wal.Options{Injector: inj}); err != nil {
		return nil, err
	}
	bySi := make([][]runFile, len(t.shards))
	for _, e := range entries {
		si, seq, ok := parseRunName(e.Name())
		if !ok || si < 0 || si >= len(t.shards) {
			continue
		}
		bySi[si] = append(bySi[si], runFile{path: filepath.Join(dopts.Dir, e.Name()), seq: seq})
	}
	for si := range d.shards {
		runs := bySi[si]
		sort.Slice(runs, func(a, b int) bool { return runs[a].seq < runs[b].seq })
		l, err := wal.Open(d.walPath(si), wal.Options{Injector: inj})
		if err != nil {
			for _, prev := range d.shards[:si] {
				prev.log.Close()
			}
			d.batchLog.Close()
			return nil, err
		}
		ds := &durableShard{log: l, runs: runs}
		if n := len(runs); n > 0 {
			ds.seq = runs[n-1].seq
		}
		d.shards[si] = ds
	}
	return d, nil
}

// closeFiles closes every WAL without flushing, and in lazy mode
// drains every shard's run stack: each open reader is marked dead and
// the stack's reference released, so readers close as soon as any
// in-flight pinned query lets go (such queries may then surface read
// errors — the intended crash simulation under Kill).
func (d *durableTable) closeFiles() {
	for _, ds := range d.shards {
		ds.log.Close()
		ds.stackMu.Lock()
		stack := ds.stack
		ds.stack = nil
		ds.stackMu.Unlock()
		for _, or := range stack {
			or.dead.Store(true)
			or.release()
		}
	}
	d.batchLog.Close()
}

// startWorker launches the background flush/compact worker when
// AutoFlush is enabled; otherwise the done channel is closed
// immediately so stopWorker never blocks.
func (d *durableTable) startWorker(t *Table) {
	if d.opts.AutoFlush <= 0 {
		close(d.done)
		return
	}
	go func() {
		defer close(d.done)
		for {
			select {
			case <-d.stop:
				return
			case <-d.notify:
			}
			for si, ds := range d.shards {
				if ds.log.Records() >= d.opts.AutoFlush {
					// Background maintenance is best-effort: a failed flush
					// leaves the WAL covering the records, and the next
					// synchronous Flush/Close surfaces the error.
					_ = t.flushShard(si)
				}
				if d.opts.CompactAfter > 0 && ds.runCount() >= d.opts.CompactAfter {
					_ = t.compactShardDisk(si)
				}
			}
		}
	}()
}

// notifyFlush nudges the worker; never blocks.
func (d *durableTable) notifyFlush() {
	if d.opts.AutoFlush <= 0 {
		return
	}
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// stopWorker stops the background worker and waits for it to exit.
func (d *durableTable) stopWorker() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	<-d.done
}

// Close gracefully shuts the durable table down: the background worker
// stops, every shard is checkpointed — its frozen snapshot sealed as a
// full run with the leaf index, the WAL truncated, superseded runs
// deleted — and the WAL files are closed. A closed table rejects
// further durable mutations; reopen it with OpenDurableTable (after
// DropTable when reusing the same DB). Close on a non-durable table is
// a no-op. Idempotent.
func (t *Table) Close() error {
	d := t.dur
	if d == nil {
		return nil
	}
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	d.stopWorker()
	var firstErr error
	for si := range t.shards {
		// A lazy table has no frozen tree to checkpoint; sealing the WAL
		// tail into a delta run gives the same durability (reopen replays
		// nothing) without materializing entries.
		seal := t.checkpointShard
		if d.lazy {
			seal = t.flushShard
		}
		if err := seal(si); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := d.maybeTruncateBatchLog(); err != nil && firstErr == nil {
		firstErr = err
	}
	d.closeFiles()
	return firstErr
}

// Kill simulates a crash for chaos testing: the background worker
// stops and every file handle is closed with no flush, no WAL
// truncation, and no checkpoint. In-flight mutations fail without
// applying. The on-disk state is exactly what a process death at this
// moment would leave; reopen with OpenDurableTable to recover.
func (t *Table) Kill() {
	d := t.dur
	if d == nil {
		return
	}
	if !d.closed.CompareAndSwap(false, true) {
		return
	}
	d.stopWorker()
	d.closeFiles()
}

// logInsert appends one insert to the owning shard's WAL. Called with
// the shard (and stripe) locks held, after every validation that could
// fail the in-memory apply — so a logged mutation always applies.
func (d *durableTable) logInsert(si int, rec Record, payload []byte) error {
	if d.closed.Load() {
		return ErrTableClosed
	}
	return d.append(si, encodeInsertOp(rec.ID, rec.Loc, payload))
}

// logDelete appends one delete to the owning shard's WAL.
func (d *durableTable) logDelete(si int, id uint64, loc geom.Point) error {
	if d.closed.Load() {
		return ErrTableClosed
	}
	return d.append(si, encodeDeleteOp(id, loc))
}

// logBatch appends one opBatch record per involved shard and then the
// batch's opCommit record to the table-level batch log, all under the
// already-held shard locks. If any append — frame or commit — fails,
// the batch is marked failed: frames already written are skipped by
// Flush, and recovery drops them because no commit survives. Only a
// durable commit makes the batch recoverable, and only a successful
// return applies it, so the in-memory, on-disk, and acknowledged
// outcomes always agree.
func (d *durableTable) logBatch(involved []int, byShard [][]int, recs []Record, payloads [][]byte) error {
	if d.closed.Load() {
		return ErrTableClosed
	}
	id := d.batchID.Add(1)
	for _, si := range involved {
		idxs := byShard[si]
		part := make([]Record, len(idxs))
		parts := make([][]byte, len(idxs))
		for j, ri := range idxs {
			part[j] = recs[ri]
			parts[j] = payloads[ri]
		}
		if err := d.append(si, encodeBatchOp(id, len(involved), part, parts)); err != nil {
			d.markFailedBatch(id)
			return err
		}
	}
	if err := d.appendCommit(id); err != nil {
		d.markFailedBatch(id)
		return err
	}
	return nil
}

// appendCommit writes the batch's commit record, honoring SyncAppends.
func (d *durableTable) appendCommit(id uint64) error {
	d.batchMu.Lock()
	defer d.batchMu.Unlock()
	if err := d.batchLog.Append(encodeCommitOp(id)); err != nil {
		return err
	}
	if d.opts.SyncAppends {
		return d.batchLog.Sync()
	}
	return nil
}

// maybeTruncateBatchLog restarts the batch-commit log when no shard WAL
// holds frames any more — every batch the commits could vouch for is
// sealed into runs, so the commits are dead weight. batchMu excludes a
// concurrent commit append; a batch mid-flight has frames in some shard
// WAL (appended before its commit), so the Records check keeps its
// commit safe.
func (d *durableTable) maybeTruncateBatchLog() error {
	d.batchMu.Lock()
	defer d.batchMu.Unlock()
	for _, ds := range d.shards {
		if ds.log.Records() != 0 {
			return nil
		}
	}
	if d.batchLog.Records() == 0 {
		return nil
	}
	return restartLog(d.batchLog)
}

// restartLog empties a log whose frames nothing needs any more: sealed
// runs cover a shard WAL's, and no shard WAL holds a frame the batch
// log's commits vouch for. A poisoned log (a torn append or a failed
// sync) is restarted too: truncation drops the unknown tail, so it
// is the way back from poison short of a reopen.
func restartLog(l *wal.Log) error {
	if err := l.Sync(); err != nil && !errors.Is(err, wal.ErrPoisoned) {
		return err
	}
	return l.Truncate()
}

// append writes one WAL record, honoring the SyncAppends policy.
func (d *durableTable) append(si int, rec []byte) error {
	ds := d.shards[si]
	if err := ds.log.Append(rec); err != nil {
		return err
	}
	if d.opts.SyncAppends {
		return ds.log.Sync()
	}
	return nil
}

// cellCodeOf is the canonical merge key of a location within its
// shard: the Morton code of its cell at the deepest encodable grid.
// Every run of a shard keys entries this way, so entries from any mix
// of snapshots merge in one total order. The shard's precomputed coder
// takes the single-division fast path on dyadic shard extents.
func cellCodeOf(s *shard, p geom.Point) uint64 {
	return s.coder.Code(p)
}
