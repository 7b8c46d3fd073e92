package spatialdb

// Flush, disk compaction, and the graceful-close checkpoint: the paths
// that seal a shard's WAL tail into immutable run files. All three
// hold the shard's flushMu (serializing against each other) and the
// shard's tree read lock (excluding writers, so the WAL is stable and
// the tree matches it) for the fold-seal-truncate window; queries keep
// running throughout.
//
// The sealing order is the recovery invariant: the run file is fully
// durable — fsynced under its final name, directory synced — before
// the WAL it covers is truncated. A crash between the two leaves both
// the run and the WAL; replaying the WAL over the run is idempotent
// (inserts last-win on their location, deletes of absent locations are
// no-ops), so the double-covered window is harmless.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"

	"popana/internal/faultinject"
	"popana/internal/geom"
	"popana/internal/linearquad"
	"popana/internal/segment"
)

// Flush folds every shard's WAL into a sealed delta run and truncates
// the log. Shards with empty WALs are untouched. Concurrent queries
// proceed; writers to a shard wait only while that shard seals.
func (t *Table) Flush() error {
	if t.dur == nil {
		return nil
	}
	var firstErr error
	for si := range t.shards {
		if err := t.flushShard(si); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := t.dur.maybeTruncateBatchLog(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// flushShard seals one shard's WAL tail into a delta run. A lazy shard
// takes the write lock — the seal clears its tail map — where an eager
// one needs only the read lock to hold the WAL stable.
func (t *Table) flushShard(si int) error {
	ds := t.dur.shards[si]
	ds.flushMu.Lock()
	defer ds.flushMu.Unlock()
	s := t.shards[si]
	if t.dur.lazy {
		s.mu.Lock() //popvet:allow lockdiscipline -- single shard si: the two sites are the exclusive lazy/eager branch, never two shards held
		defer s.mu.Unlock()
	} else {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return t.sealWALLocked(si)
}

// sealWALLocked folds the WAL into a delta run and truncates it. The
// caller holds the shard's flushMu and tree read lock.
func (t *Table) sealWALLocked(si int) error {
	ds := t.dur.shards[si]
	if ds.log.Records() == 0 {
		return nil
	}
	entries, err := t.foldWAL(si)
	if err != nil {
		return fmt.Errorf("spatialdb: flush %q shard %d: %w", t.name, si, err)
	}
	if len(entries) == 0 {
		// Every record belonged to a failed batch; nothing to seal, but
		// the WAL can restart empty.
		return ds.truncateWAL()
	}
	s := t.shards[si]
	seq := ds.seq + 1
	path := t.dur.runPath(si, seq)
	meta := segment.Meta{
		Kind:   segment.Delta,
		Shard:  uint32(si),
		Seq:    seq,
		Region: s.region,
		Depth:  linearquad.MaxDepth,
	}
	if err := segment.Write(path, meta, nil, nil, entries, t.dur.inj); err != nil {
		return fmt.Errorf("spatialdb: flush %q shard %d: %w", t.name, si, err)
	}
	ds.seq = seq
	ds.runs = append(ds.runs, runFile{path: path, seq: seq, kind: segment.Delta})
	if t.dur.lazy {
		// Publish the run to the serving stack before dropping the tail
		// it supersedes; a query pinning between the two sees the run and
		// possibly a stale tail copy, which newest-wins merging collapses
		// to the same entries. (The caller holds the write lock, so no
		// query actually interleaves here — the order is for reading.)
		or, oerr := t.dur.openRunReader(path, seq, segment.Delta)
		if oerr != nil {
			// The run is durable but not yet serving: leave the tail and
			// WAL in place — both still cover the records, and replaying
			// the WAL over the run at the next open is idempotent.
			return fmt.Errorf("spatialdb: flush %q shard %d: %w", t.name, si, oerr)
		}
		ds.pushStack(or)
		clear(s.tail)
	}
	return ds.truncateWAL()
}

// truncateWAL restarts the WAL empty once a sealed run covers it.
func (ds *durableShard) truncateWAL() error {
	return restartLog(ds.log)
}

// foldWAL replays the shard's WAL into sorted run entries: for each
// location the last operation wins — a surviving insert becomes an
// entry, a surviving delete a tombstone. Frames of failed batches are
// skipped (see durableTable.failedBatches).
func (t *Table) foldWAL(si int) ([]segment.Entry, error) {
	s := t.shards[si]
	type lastOp struct {
		rec  Record
		tomb bool
	}
	state := map[geom.Point]lastOp{}
	apply := func(op walOp) {
		switch op.op {
		case opInsert:
			state[op.loc] = lastOp{rec: Record{ID: op.id, Loc: op.loc, Data: op.data}}
		case opDelete:
			state[op.loc] = lastOp{rec: Record{ID: op.id, Loc: op.loc}, tomb: true}
		case opBatch:
			for _, r := range op.batch.recs {
				state[r.Loc] = lastOp{rec: r}
			}
		}
	}
	_, err := t.dur.shards[si].log.Fold(func(payload []byte) error {
		op, err := decodeOp(payload)
		if err != nil {
			return err
		}
		if op.op == opBatch && t.dur.batchFailed(op.batch.id) {
			return nil
		}
		apply(op)
		return nil
	})
	if err != nil {
		return nil, err
	}
	entries := make([]segment.Entry, 0, len(state))
	for loc, o := range state {
		e := segment.Entry{
			Code:      cellCodeOf(s, loc),
			ID:        o.rec.ID,
			X:         loc.X,
			Y:         loc.Y,
			Tombstone: o.tomb,
		}
		if !o.tomb {
			payload, perr := encodePayload(o.rec.Data)
			if perr != nil {
				// Unreachable: payloads were validated before logging.
				return nil, perr
			}
			e.Payload = payload
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].Less(entries[b]) })
	return entries, nil
}

// CompactDisk seals every shard's WAL and then k-way-merges each
// shard's run ladder into a single full run, deleting the superseded
// files. An injected CompactionInterrupted fault returns after the
// merged run is durable but before the old runs are deleted — the
// state every crash-at-that-point leaves — and recovery ignores the
// stale runs because the merged run supersedes them by sequence.
func (t *Table) CompactDisk() error {
	if t.dur == nil {
		return nil
	}
	var firstErr error
	for si := range t.shards {
		if err := t.compactShardDisk(si); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := t.dur.maybeTruncateBatchLog(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// compactShardDisk merges one shard's runs into a single full run.
func (t *Table) compactShardDisk(si int) error {
	ds := t.dur.shards[si]
	ds.flushMu.Lock()
	defer ds.flushMu.Unlock()
	s := t.shards[si]
	var err error
	if t.dur.lazy {
		s.mu.Lock() //popvet:allow lockdiscipline -- single shard si: the two sites are the exclusive lazy/eager branch, never two shards held
		err = t.sealWALLocked(si)
		s.mu.Unlock()
	} else {
		s.mu.RLock()
		err = t.sealWALLocked(si)
		s.mu.RUnlock()
	}
	if err != nil {
		return err
	}
	if len(ds.runs) <= 1 && (len(ds.runs) == 0 || ds.runs[0].kind == segment.Full) {
		return nil // already a single full run (or nothing at all)
	}
	// Merge from the newest full run onward. Runs below it are fully
	// shadowed — a crash mid-cleanup can leave any subset of them behind
	// — and folding one back in could resurrect a key that a shadowing
	// delta deleted and the full run therefore lacks. Cleanup below still
	// removes every superseded file.
	start := 0
	for i, rf := range ds.runs {
		if rf.kind == segment.Full {
			start = i
		}
	}
	// Runs are immutable once sealed, so the merge needs no table locks.
	live := ds.runs[start:]
	runEntries := make([][]segment.Entry, 0, len(live))
	for _, rf := range live {
		r, err := segment.Read(rf.path)
		if err != nil {
			return fmt.Errorf("spatialdb: compact %q shard %d: %w", t.name, si, err)
		}
		runEntries = append(runEntries, r.Entries)
	}
	merged := segment.Merge(runEntries...)
	seq := ds.seq + 1
	path := t.dur.runPath(si, seq)
	meta := segment.Meta{
		Kind:   segment.Full,
		Shard:  uint32(si),
		Seq:    seq,
		Region: s.region,
		Depth:  linearquad.MaxDepth,
	}
	if err := segment.Write(path, meta, nil, nil, merged, t.dur.inj); err != nil {
		return fmt.Errorf("spatialdb: compact %q shard %d: %w", t.name, si, err)
	}
	old := ds.runs
	ds.seq = seq
	ds.runs = []runFile{{path: path, seq: seq, kind: segment.Full}}
	if t.dur.lazy {
		or, oerr := t.dur.openRunReader(path, seq, segment.Full)
		if oerr != nil {
			return fmt.Errorf("spatialdb: compact %q shard %d: %w", t.name, si, oerr)
		}
		// Swap the serving stack to the merged run and retire the old
		// readers: each closes when its last pinned query releases it,
		// and POSIX keeps the unlinked files readable until then.
		closeRuns(ds.swapStack(or))
	}
	if t.dur.inj.Fire(faultinject.CompactionInterrupted) {
		// Crash window: the merged run is durable, the old files are not
		// yet deleted. Recovery takes the newest full run and ignores the
		// superseded ones, so we keep running with the same view.
		return fmt.Errorf("spatialdb: compact %q shard %d: %w at %s",
			t.name, si, faultinject.ErrInjected, faultinject.CompactionInterrupted)
	}
	for _, rf := range old {
		if err := os.Remove(rf.path); err != nil {
			return fmt.Errorf("spatialdb: compact %q shard %d: %w", t.name, si, err)
		}
	}
	return segment.SyncDir(t.dur.dir)
}

// checkpointShard seals the shard's full state — frozen snapshot, leaf
// index included — as one full run, truncates the WAL, and deletes the
// superseded runs. Used by Close so a clean reopen can republish the
// lock-free snapshot without re-freezing. If the shard cannot be frozen
// (linearquad.ErrTooDeep), it falls back to sealing just the WAL tail,
// which is durable but republishes nothing.
func (t *Table) checkpointShard(si int) error {
	ds := t.dur.shards[si]
	ds.flushMu.Lock()
	defer ds.flushMu.Unlock()
	s := t.shards[si]
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.frozenLocked()
	if err != nil {
		return t.sealWALLocked(si)
	}
	entries, err := entriesFromFrozen(s, f)
	if err != nil {
		return fmt.Errorf("spatialdb: checkpoint %q shard %d: %w", t.name, si, err)
	}
	seq := ds.seq + 1
	path := t.dur.runPath(si, seq)
	meta := segment.Meta{
		Kind:   segment.Full,
		Shard:  uint32(si),
		Seq:    seq,
		Region: s.region,
		Depth:  f.Depth(),
	}
	if err := segment.Write(path, meta, f.Codes(), f.Starts(), entries, t.dur.inj); err != nil {
		return fmt.Errorf("spatialdb: checkpoint %q shard %d: %w", t.name, si, err)
	}
	old := ds.runs
	ds.seq = seq
	ds.runs = []runFile{{path: path, seq: seq, kind: segment.Full}}
	if err := ds.truncateWAL(); err != nil {
		return err
	}
	for _, rf := range old {
		if err := os.Remove(rf.path); err != nil {
			return fmt.Errorf("spatialdb: checkpoint %q shard %d: %w", t.name, si, err)
		}
	}
	return segment.SyncDir(t.dur.dir)
}

// entriesFromFrozen converts a frozen snapshot's flat entry array into
// run entries sorted by the canonical (code, x, y) key. Max-depth cell
// codes refine the leaf grid without reordering it, so the sort
// permutes entries only within leaves and the snapshot's leaf-index
// planes (codes, starts) remain exact over the sorted array — which is
// what lets recovery rebuild the Frozen via FromParts.
func entriesFromFrozen(s *shard, f *linearquad.Frozen[Record]) ([]segment.Entry, error) {
	xs, ys := f.XYs()
	vals := f.Values()
	entries := make([]segment.Entry, len(xs))
	for i := range xs {
		payload, err := encodePayload(vals[i].Data)
		if err != nil {
			return nil, err
		}
		entries[i] = segment.Entry{
			Code:    s.coder.Code(geom.Pt(xs[i], ys[i])),
			ID:      vals[i].ID,
			X:       xs[i],
			Y:       ys[i],
			Payload: payload,
		}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].Less(entries[b]) })
	return entries, nil
}

// --- manifest ---

// manifest pins the table shape the on-disk runs are keyed by.
type manifest struct {
	name      string
	capacity  int
	shardBits int
	snapEvery uint64
	region    geom.Rect
}

const manifestName = "MANIFEST"

var manifestMagic = [6]byte{'P', 'Q', 'M', 'A', 'N', 1}

// writeManifest serializes the manifest atomically.
func writeManifest(path string, m manifest) error {
	b := append([]byte(nil), manifestMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.name)))
	b = append(b, m.name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(m.capacity))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.shardBits))
	b = binary.LittleEndian.AppendUint64(b, m.snapEvery)
	for _, f := range [4]float64{m.region.MinX, m.region.MinY, m.region.MaxX, m.region.MaxY} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
	return segment.WriteAtomic(path, b)
}

// readManifest inverts writeManifest.
func readManifest(path string) (manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return manifest{}, err
	}
	if len(b) < len(manifestMagic)+2+4+4+8+32+4 {
		return manifest{}, fmt.Errorf("manifest truncated (%d bytes)", len(b))
	}
	if [6]byte(b[:6]) != manifestMagic {
		return manifest{}, fmt.Errorf("bad manifest magic")
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != sum {
		return manifest{}, fmt.Errorf("manifest checksum mismatch")
	}
	nameLen := int(binary.LittleEndian.Uint16(body[6:8]))
	rest := body[8:]
	if len(rest) != nameLen+4+4+8+32 {
		return manifest{}, fmt.Errorf("manifest length mismatch")
	}
	m := manifest{name: string(rest[:nameLen])}
	rest = rest[nameLen:]
	m.capacity = int(binary.LittleEndian.Uint32(rest[0:4]))
	m.shardBits = int(binary.LittleEndian.Uint32(rest[4:8]))
	m.snapEvery = binary.LittleEndian.Uint64(rest[8:16])
	m.region = geom.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(rest[16:24])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(rest[24:32])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(rest[32:40])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(rest[40:48])),
	}
	return m, nil
}
