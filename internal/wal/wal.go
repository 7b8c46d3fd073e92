// Package wal is a minimal, crash-safe write-ahead log: an append-only
// file of length-prefixed, CRC32-framed records. It knows nothing about
// what the records mean — callers hand it opaque payloads — so the same
// log serves every shard of a spatialdb table and stays independently
// testable.
//
// # Frame format
//
//	offset  size  field
//	0       4     payload length n (uint32, little-endian)
//	4       4     CRC-32C (Castagnoli) of the payload
//	8       n     payload
//
// # Crash contract
//
// A record is durable once Append returns and the covering Sync (or an
// O_SYNC-free OS page cache that survives the crash — the process-crash
// model every chaos test in this repository uses) has happened. A crash
// mid-append leaves a torn frame: a truncated header, a short payload,
// or a payload whose checksum does not match. Replay stops at the first
// torn frame and reports it; everything before it is intact by
// induction (frames are written in one contiguous slice, in order).
//
// Open truncates the file back to the end of the last valid frame, so
// appends after a recovery can never land behind unreachable garbage —
// a record appended after a torn tail would otherwise be silently lost
// by every future replay.
//
// A failed append — an injected torn write, a full disk, a closed file —
// poisons the log: the file's tail is now unknown, which is exactly the
// state a crash leaves, so every later Append returns ErrPoisoned and
// the owner is expected to treat the table as crashed and recover. This
// mirrors what real engines do: after a write error the only safe WAL
// is a re-opened one.
//
// A failed Sync poisons the log the same way, and Sync on a poisoned
// log returns ErrPoisoned rather than retrying: after a failed fsync the
// kernel may have dropped the dirty pages and marked them clean, so a
// later fsync can report success for data that never reached the disk.
// The failed Sync also rolls the file back, best effort, to the end of
// the last successfully synced frame, dropping frames whose durability
// is now unknown. Owners therefore sync only where dropping the
// unsynced frames is safe: right after an append they have not yet
// acknowledged, or once a sealed run covers the whole log.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"popana/internal/faultinject"
)

// ErrPoisoned is returned by Append and Sync after an earlier append or
// sync failed: the log tail is in an unknown state and the owner must
// recover by reopening, or by Truncate once no frame is needed.
var ErrPoisoned = errors.New("wal: log poisoned by earlier append or sync failure")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// headerSize is the frame header: uint32 length + uint32 CRC.
const headerSize = 8

// castagnoli is the CRC-32C polynomial table; Castagnoli detects the
// short-burst errors torn sector writes produce better than IEEE and is
// hardware-accelerated on every platform this repo targets.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is one append-only record log backed by a single file. Append,
// Truncate, and Sync are safe for concurrent use; Replay and Fold read
// with an independent cursor and never disturb the append offset.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	size    int64 // end of the last valid frame == append offset
	records int   // valid frames currently in the file
	// synced and syncedRecords describe the prefix the last successful
	// Sync (or Truncate, or Open's scan) left durable.
	synced        int64
	syncedRecords int
	poisoned      bool
	closed        bool
	inj           *faultinject.Injector
}

// Options parameterizes Open.
type Options struct {
	// Injector arms deterministic failure points (WALTornWrite,
	// WALSyncFail); nil is the production default and costs one pointer
	// comparison.
	Injector *faultinject.Injector
}

// Open opens (creating if absent) the log at path, scans it for the end
// of the last valid frame, and truncates any torn tail so future
// appends extend the valid prefix. The number of surviving records is
// available via Records.
func Open(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f, path: path, inj: opts.Injector}
	valid, n, _, err := scan(f, nil)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	l.size, l.synced = valid, valid
	l.records, l.syncedRecords = n, n
	return l, nil
}

// scan reads frames from the start of r, calling visit (when non-nil)
// with each valid payload, and returns the offset just past the last
// valid frame, the number of valid frames, and whether a torn tail was
// found after them. The payload slice is reused between calls.
func scan(r io.ReaderAt, visit func([]byte) error) (valid int64, records int, torn bool, err error) {
	var hdr [headerSize]byte
	var buf []byte
	off := int64(0)
	for {
		if _, err := r.ReadAt(hdr[:], off); err != nil {
			if errors.Is(err, io.EOF) {
				// A partial header (or clean EOF) ends the valid prefix.
				n, _ := r.ReadAt(hdr[:1], off)
				return off, records, n > 0, nil
			}
			return 0, 0, false, err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := r.ReadAt(buf, off+headerSize); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, records, true, nil // short payload: torn
			}
			return 0, 0, false, err
		}
		if crc32.Checksum(buf, castagnoli) != want {
			return off, records, true, nil // damaged payload: torn
		}
		if visit != nil {
			if err := visit(buf); err != nil {
				return 0, 0, false, err
			}
		}
		off += headerSize + int64(n)
		records++
	}
}

// Append writes one record. On any failure — including an injected torn
// write, which deliberately leaves a partial frame behind — the log is
// poisoned and the caller must treat the table as crashed.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.poisoned:
		return ErrPoisoned
	}
	frame := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[headerSize:], payload)
	if l.inj.Fire(faultinject.WALTornWrite) {
		// Simulate a crash mid-syscall: half the frame reaches the file,
		// then the machine dies. The partial frame stays on disk (replay
		// must discard it) and the log is unusable until reopened.
		l.f.WriteAt(frame[:len(frame)/2], l.size)
		l.poisoned = true
		return fmt.Errorf("wal: append: %w at %s", faultinject.ErrInjected, faultinject.WALTornWrite)
	}
	if _, err := l.f.WriteAt(frame, l.size); err != nil {
		l.poisoned = true
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	l.records++
	return nil
}

// Sync flushes the file to stable storage. On failure — including an
// injected WALSyncFail — the log is poisoned and rolled back to the last
// synced frame (see the package comment); the caller must not
// acknowledge the frames appended since that sync.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.poisoned:
		return ErrPoisoned
	}
	err := l.inj.Err(faultinject.WALSyncFail)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		// The log's end moves back to the synced prefix even if the
		// physical truncate fails, so Fold never returns the dropped
		// frames.
		l.poisoned = true
		_ = l.f.Truncate(l.synced)
		l.size, l.records = l.synced, l.syncedRecords
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.synced, l.syncedRecords = l.size, l.records
	return nil
}

// Truncate discards every record: the log restarts empty. Callers
// truncate only after the records are durably covered by a sealed run.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	l.size, l.synced = 0, 0
	l.records, l.syncedRecords = 0, 0
	if err := l.f.Sync(); err != nil {
		l.poisoned = true
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	l.poisoned = false // the unknown tail is gone
	return nil
}

// Records returns the number of valid records currently in the log.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// Fold replays every valid record from the start of the log up to the
// append offset through visit, without moving it, and reports whether a
// torn tail follows the valid prefix. It reads the file with an independent
// cursor, so it is safe to call while the log is open for append (the
// caller serializes against concurrent Append by holding the owning
// shard's lock, as the flush path does).
func (l *Log) Fold(visit func(payload []byte) error) (torn bool, err error) {
	l.mu.Lock()
	f, size, closed := l.f, l.size, l.closed
	l.mu.Unlock()
	if closed {
		return false, ErrClosed
	}
	_, _, torn, err = scan(io.NewSectionReader(f, 0, size), visit)
	return torn, err
}

// Close closes the underlying file. A poisoned or dirty log is closed
// as-is: recovery re-scans the file on the next Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// Path returns the file path the log was opened at.
func (l *Log) Path() string { return l.path }
