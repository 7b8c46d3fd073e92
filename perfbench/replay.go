package main

// The traced run's ledger. The table calls of the traced phase carry
// spans; afterwards every call's input is replayed, outside the table,
// against the layers below it, each replayed call under a span whose
// parent is the table call. A layer's share is then measured, not
// guessed: a table call's self time is its span minus the replayed
// calls of the kernel that serves it.
//
// Kernels are replayed on one linearquad.Frozen and quadtree.Tree per
// shard cell, built from the records live when the traced phase began,
// and on segment.Readers over the table's own run files (a workload
// without run files gets runs sealed from the same records) sharing a
// segment.Cache of the lazy table's default budget.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"popana/internal/core"
	"popana/internal/geom"
	"popana/internal/linearquad"
	"popana/internal/quadtree"
	"popana/internal/segment"
	"popana/internal/spatialdb"
	"popana/internal/wal"
	"popana/internal/xrand"
)

// WAL frame layout, as package wal writes it: an 8-byte header (length
// and CRC) before each payload. The durable codec's single-record
// frames start with op tag 1 (insert) or 2 (delete); an insert of a
// record without payload is 26 bytes.
const (
	walFrameHeader     = 8
	walOpInsert        = 1
	walOpDelete        = 2
	walInsertNoPayload = 26
)

// solveRepeats is how many uncached model solves core.solve_ms takes
// the median of.
const solveRepeats = 5

// replayer holds the kernels the traced calls are replayed on.
type replayer struct {
	b      *bench
	lazy   bool
	levels int
	cells  []geom.Rect
	coders []linearquad.CellCoder
	trees  []*quadtree.Tree[spatialdb.Record]
	frozen []*linearquad.Frozen[spatialdb.Record]
	dirty  []*linearquad.Dirty
	muts   []int
	lqs    linearquad.Scratch
	// runs holds each shard's serving runs, oldest first.
	runs  [][]runFile
	cache *segment.Cache
	log   *wal.Log
	// walPayload is the replayed append size.
	walPayload []byte
	dir        string
	spans      []span
	// blocksLoaded and scans count the replayed segment scans' work.
	blocksLoaded, scans int
}

func (r *replayer) add(name spanName, parent int32, op uint64, start int64) int32 {
	r.spans = append(r.spans, span{name: name, parent: parent, op: op, start: start, end: r.b.now()})
	return int32(len(r.spans) - 1)
}

func (r *replayer) shardOf(p geom.Point) int {
	return int(geom.UnitSquare.CellOf(p, r.levels))
}

// newReplayer builds the per-shard kernels from recs, timing each
// shard's freeze.
func newReplayer(b *bench, recs []spatialdb.Record, spans []span) (*replayer, error) {
	n := b.tab.Shards()
	r := &replayer{b: b, lazy: b.spec.lazy, spans: spans, dir: filepath.Join(b.dir, "replay")}
	for 1<<(2*r.levels) < n {
		r.levels++
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	pts := make([][]geom.Point, n)
	vals := make([][]spatialdb.Record, n)
	for _, rec := range recs {
		si := r.shardOf(rec.Loc)
		pts[si] = append(pts[si], rec.Loc)
		vals[si] = append(vals[si], rec)
	}
	for si := 0; si < n; si++ {
		cell := geom.UnitSquare.Cell(uint64(si), r.levels)
		r.cells = append(r.cells, cell)
		r.coders = append(r.coders, linearquad.NewCellCoder(cell, linearquad.MaxDepth))
		t, err := quadtree.BulkLoad(quadtree.Config{Capacity: capacity, Region: cell, MaxDepth: quadtree.DefaultMaxDepth - r.levels}, pts[si], vals[si])
		if err != nil {
			return nil, err
		}
		start := b.now()
		f, err := linearquad.Freeze(t)
		if err != nil {
			return nil, err
		}
		r.add(spLQFreeze, -1, 0, start)
		r.trees = append(r.trees, t)
		r.frozen = append(r.frozen, f)
		r.dirty = append(r.dirty, linearquad.NewDirty(dirtyLevel))
		r.muts = append(r.muts, 0)
	}
	r.cache = segment.NewCache(spatialdb.DefaultCacheBytes)
	return r, nil
}

// runFile is one open run file.
type runFile struct {
	rd   *segment.Reader
	path string
}

// dirtyLevel matches the table's per-shard dirty grid, so FreezeDelta
// splices at the granularity the table's rebuilds do.
const dirtyLevel = 6

// openTableRuns opens the table's run files: per shard, the newest full
// run and every run sealed after it.
func (r *replayer) openTableRuns(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "run-*.seg"))
	if err != nil {
		return err
	}
	type runName struct {
		path    string
		si, seq int
	}
	var all []runName
	for _, p := range names {
		var rn runName
		if _, err := fmt.Sscanf(filepath.Base(p), "run-%d-%d.seg", &rn.si, &rn.seq); err != nil {
			continue
		}
		rn.path = p
		all = append(all, rn)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	r.runs = make([][]runFile, len(r.cells))
	for _, rn := range all {
		rd, err := segment.OpenReader(rn.path)
		if err != nil {
			return err
		}
		rd.SetCache(r.cache)
		if rd.Meta().Kind == segment.Full {
			for _, old := range r.runs[rn.si] {
				old.rd.Close()
			}
			r.runs[rn.si] = nil
		}
		r.runs[rn.si] = append(r.runs[rn.si], runFile{rd, rn.path})
	}
	return nil
}

// sealRuns writes one full run per shard from the frozen kernels, as a
// checkpoint would, for a workload that has no run files of its own.
func (r *replayer) sealRuns() error {
	r.runs = make([][]runFile, len(r.cells))
	for si, f := range r.frozen {
		path := filepath.Join(r.dir, fmt.Sprintf("run-%d-%09d.seg", si, 1))
		meta := segment.Meta{Kind: segment.Full, Shard: uint32(si), Seq: 1, Region: r.cells[si], Depth: f.Depth()}
		if err := segment.Write(path, meta, f.Codes(), f.Starts(), r.entries(si, f), nil); err != nil {
			return err
		}
		rd, err := segment.OpenReader(path)
		if err != nil {
			return err
		}
		rd.SetCache(r.cache)
		r.runs[si] = []runFile{{rd, path}}
	}
	return nil
}

// entries converts a frozen shard into sorted run entries.
func (r *replayer) entries(si int, f *linearquad.Frozen[spatialdb.Record]) []segment.Entry {
	xs, ys := f.XYs()
	vals := f.Values()
	es := make([]segment.Entry, len(xs))
	for i := range xs {
		es[i] = segment.Entry{Code: r.coders[si].Code(geom.Pt(xs[i], ys[i])), ID: vals[i].ID, X: xs[i], Y: ys[i], Payload: []byte{0}}
	}
	sort.Slice(es, func(a, b int) bool { return es[a].Less(es[b]) })
	return es
}

func (r *replayer) close() {
	for _, rs := range r.runs {
		for _, rn := range rs {
			rn.rd.Close()
		}
	}
	if r.log != nil {
		r.log.Close()
	}
}

// find replays a point lookup on shard si's run stack, newest first.
func (r *replayer) find(si int, p geom.Point, parent int32, op uint64) error {
	start := r.b.now()
	code := r.coders[si].Code(p)
	rs := r.runs[si]
	for i := len(rs) - 1; i >= 0; i-- {
		if !rs[i].rd.MayContain(code) {
			continue
		}
		_, ok, err := rs[i].rd.Find(code, p.X, p.Y)
		if err != nil {
			return err
		}
		if ok {
			break
		}
	}
	r.add(spSegFind, parent, op, start)
	return nil
}

// scan replays a window scan of shard si's run stack: prefix filters,
// a merged cursor, one SeekGE to the window's low corner (its own
// span) and BIGMIN jumps, counting the entries inside w.
func (r *replayer) scan(si int, w geom.Rect, parent int32, op uint64) (int, error) {
	start := r.b.now()
	coder := &r.coders[si]
	zmin := coder.Code(geom.Pt(w.MinX, w.MinY))
	zmax := coder.Code(geom.Pt(w.MaxX, w.MaxY))
	var runCursors []*segment.Cursor
	var cursors []segment.EntryCursor
	for _, rn := range r.runs[si] {
		if !rn.rd.MayContainRange(zmin, zmax) {
			continue
		}
		c := rn.rd.Cursor()
		runCursors = append(runCursors, c)
		cursors = append(cursors, c)
	}
	sp := r.add(spSegScan, parent, op, start)
	seekStart := r.b.now()
	m := segment.NewMergedCursor(cursors...)
	e, ok, err := m.SeekGE(zmin)
	r.add(spSegSeek, sp, op, seekStart)
	n := 0
	for err == nil && ok && e.Code <= zmax {
		if w.ContainsClosed(geom.Pt(e.X, e.Y)) {
			n++
			e, ok, err = m.Next()
			continue
		}
		next, in := linearquad.BigMin(e.Code, zmin, zmax)
		if !in {
			break
		}
		e, ok, err = m.SeekGE(next)
	}
	if err != nil {
		return 0, err
	}
	for _, c := range runCursors {
		r.blocksLoaded += c.Stats().BlocksLoaded
	}
	r.scans++
	r.spans[sp].end = r.b.now()
	return n, nil
}

// shardsOverlapping lists the shard cells w touches.
func (r *replayer) shardsOverlapping(w geom.Rect) []int {
	var out []int
	for si, cell := range r.cells {
		if cell.OverlapsClosed(w) {
			out = append(out, si)
		}
	}
	return out
}

// mutate applies one replayed write to shard si's tree and, every
// DefaultSnapshotThreshold mutations, rebuilds its snapshot
// incrementally as the table does.
func (r *replayer) mutate(si int, p geom.Point) error {
	r.dirty[si].Mark(r.coders[si].Code(p) >> uint(2*(linearquad.MaxDepth-dirtyLevel)))
	if r.muts[si]++; r.muts[si] < spatialdb.DefaultSnapshotThreshold {
		return nil
	}
	start := r.b.now()
	f, err := linearquad.FreezeDelta(r.trees[si], r.frozen[si], r.dirty[si])
	if err != nil {
		return err
	}
	r.add(spLQFreezeDelta, -1, 0, start)
	r.frozen[si] = f
	r.dirty[si].Reset()
	r.muts[si] = 0
	return nil
}

// replay runs every traced call's input on the kernels, in the order
// the calls started.
func (r *replayer) replay(p *phase) error {
	var hits []spatialdb.Record
	visit := func(_ geom.Point, v spatialdb.Record) bool {
		hits = append(hits, v)
		return true
	}
	pts := make([]geom.Point, batchSize)
	vals := make([]spatialdb.Record, batchSize)
	found := make([]bool, batchSize)
	for _, op := range p.ops {
		parent := op.span
		opID := p.spans[parent].op
		switch op.name {
		case spGet:
			si := r.shardOf(op.loc)
			start := r.b.now()
			r.frozen[si].Get(op.loc)
			r.add(spLQGet, parent, opID, start)
			if err := r.find(si, op.loc, parent, opID); err != nil {
				return err
			}
		case spBatch:
			ids := p.batchIDs[op.batch : op.batch+batchSize]
			bySh := map[int][]geom.Point{}
			for _, id := range ids {
				loc := r.b.locs[id]
				bySh[r.shardOf(loc)] = append(bySh[r.shardOf(loc)], loc)
			}
			for si, group := range bySh {
				n := copy(pts, group)
				start := r.b.now()
				r.frozen[si].GetBatch(&r.lqs, pts[:n], vals[:n], found[:n])
				r.add(spLQGetBatch, parent, opID, start)
			}
			for _, id := range ids {
				loc := r.b.locs[id]
				if err := r.find(r.shardOf(loc), loc, parent, opID); err != nil {
					return err
				}
			}
		case spCount, spSelect:
			for _, si := range r.shardsOverlapping(op.win) {
				start := r.b.now()
				if op.name == spCount {
					r.frozen[si].CountRange(op.win)
					r.add(spLQCount, parent, opID, start)
				} else {
					hits = hits[:0]
					r.frozen[si].Range(op.win, visit)
					r.add(spLQRange, parent, opID, start)
					hits = hits[:0]
					start = r.b.now()
					r.trees[si].RangeBudgeted(op.win, 0, visit)
					r.add(spQTRange, parent, opID, start)
				}
				if _, err := r.scan(si, op.win, parent, opID); err != nil {
					return err
				}
			}
		case spInsert, spDelete:
			si := r.shardOf(op.loc)
			if r.lazy && op.name == spInsert {
				if err := r.find(si, op.loc, parent, opID); err != nil {
					return err
				}
			}
			start := r.b.now()
			if op.name == spInsert {
				if _, err := r.trees[si].Insert(op.loc, spatialdb.Record{ID: op.id, Loc: op.loc}); err != nil {
					return err
				}
				r.add(spQTInsert, parent, opID, start)
			} else {
				r.trees[si].Delete(op.loc)
				r.add(spQTDelete, parent, opID, start)
			}
			start = r.b.now()
			if err := r.log.Append(r.walPayload); err != nil {
				return err
			}
			r.add(spWALAppend, parent, opID, start)
			if err := r.mutate(si, op.loc); err != nil {
				return err
			}
		}
	}
	return nil
}

// coldBlocks times uncached reads of a seeded sample of entry blocks
// through readers with no cache.
func (r *replayer) coldBlocks(n int) error {
	rng := rand.New(rand.NewSource(int64(xrand.Derive(r.b.cfg.seed, 5))))
	for si := range r.runs {
		for _, warm := range r.runs[si] {
			rd, err := segment.OpenReader(warm.path)
			if err != nil {
				return err
			}
			for i := 0; i < n && rd.NumBlocks() > 0; i++ {
				start := r.b.now()
				if _, err := rd.Block(rng.Intn(rd.NumBlocks())); err != nil {
					rd.Close()
					return err
				}
				r.add(spSegBlock, -1, 0, start)
			}
			rd.Close()
		}
	}
	return nil
}

// sealAndMerge times, per shard, sealing the traced writes as a delta
// run and merging it with the shard's runs into one full run: the work
// of a Flush and a CompactDisk on this workload.
func (r *replayer) sealAndMerge(p *phase) error {
	deltas := make([]map[geom.Point]segment.Entry, len(r.cells))
	for i := range deltas {
		deltas[i] = map[geom.Point]segment.Entry{}
	}
	for _, op := range p.ops {
		if op.name != spInsert && op.name != spDelete {
			continue
		}
		si := r.shardOf(op.loc)
		e := segment.Entry{Code: r.coders[si].Code(op.loc), ID: op.id, X: op.loc.X, Y: op.loc.Y, Tombstone: op.name == spDelete}
		if !e.Tombstone {
			e.Payload = []byte{0}
		}
		deltas[si][op.loc] = e
	}
	for si := range r.cells {
		es := make([]segment.Entry, 0, len(deltas[si]))
		for _, e := range deltas[si] {
			es = append(es, e)
		}
		sort.Slice(es, func(a, b int) bool { return es[a].Less(es[b]) })
		var inputs [][]segment.Entry
		for _, rn := range r.runs[si] {
			full, err := segment.Read(rn.path)
			if err != nil {
				return err
			}
			inputs = append(inputs, full.Entries)
		}
		start := r.b.now()
		meta := segment.Meta{Kind: segment.Delta, Shard: uint32(si), Seq: 100, Region: r.cells[si]}
		if err := segment.Write(filepath.Join(r.dir, fmt.Sprintf("delta-%d.seg", si)), meta, nil, nil, es, nil); err != nil {
			return err
		}
		r.add(spSegSeal, -1, 0, start)
		start = r.b.now()
		merged := segment.Merge(append(inputs, es)...)
		meta = segment.Meta{Kind: segment.Full, Shard: uint32(si), Seq: 101, Region: r.cells[si]}
		if err := segment.Write(filepath.Join(r.dir, fmt.Sprintf("merged-%d.seg", si)), meta, nil, nil, merged, nil); err != nil {
			return err
		}
		r.add(spSegMerge, -1, 0, start)
	}
	return nil
}

// walStats folds the WAL files in paths, timing the fold, and returns
// the mean frame size of the single-record frames seen.
func (r *replayer) foldWALs(paths []string, parent int32) (bytesPerWrite float64, err error) {
	var frames, bytes int
	start := r.b.now()
	for _, p := range paths {
		l, err := wal.Open(p, wal.Options{})
		if err != nil {
			return 0, err
		}
		_, err = l.Fold(func(payload []byte) error {
			if len(payload) > 0 && (payload[0] == walOpInsert || payload[0] == walOpDelete) {
				frames++
				bytes += len(payload) + walFrameHeader
			}
			return nil
		})
		l.Close()
		if err != nil {
			return 0, err
		}
	}
	r.add(spWALFold, parent, 0, start)
	return ratio(float64(bytes), float64(frames)), nil
}

// copyFile copies src to dst.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// runSeqs returns the highest run sequence number per shard in dir.
func runSeqs(dir string) map[int]int {
	out := map[int]int{}
	names, _ := filepath.Glob(filepath.Join(dir, "run-*.seg"))
	for _, p := range names {
		var si, seq int
		if _, err := fmt.Sscanf(filepath.Base(p), "run-%d-%d.seg", &si, &seq); err == nil && seq > out[si] {
			out[si] = seq
		}
	}
	return out
}

// runTraced measures untraced and traced traffic, replays the traced
// calls on the layers below the table, writes the spans out, and
// reports the per-layer ledger.
func (b *bench) runTraced() (*result, error) {
	var spans []span
	for i := 0; i < solveRepeats; i++ {
		start := b.now()
		model, err := core.NewPointModel(capacity, 4)
		if err != nil {
			return nil, err
		}
		if _, err := model.Solve(); err != nil {
			return nil, err
		}
		spans = append(spans, span{name: spSolve, parent: -1, start: start, end: b.now()})
	}
	if _, err := b.setupOnce(0); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := b.warmup(); err != nil {
		return nil, err
	}
	// Untraced, traced, untraced (3/8, 1/4 and 3/8 of the measured
	// time): state that drifts through a run, such as a WAL tail that
	// only grows, weighs on both sides of the overhead ratio alike.
	eighth := b.measured() / 8
	pu, err := b.runPhase(3*eighth, 1, false)
	if err != nil {
		return nil, err
	}
	startRecs := b.liveRecords()
	seqs0 := runSeqs(b.tabDir)
	pt, err := b.runPhase(2*eighth, 1, true)
	if err != nil {
		return nil, err
	}
	seqs1 := runSeqs(b.tabDir)
	pu2, err := b.runPhase(3*eighth, 1, false)
	if err != nil {
		return nil, err
	}
	pu.absorb(pu2)
	if err := b.check(b.tab, 0); err != nil {
		return nil, fmt.Errorf("end-of-run check: %w", err)
	}
	// Client spans are roots, so only the ops' span indices shift.
	off := int32(len(spans))
	for i := range pt.ops {
		pt.ops[i].span += off
	}
	spans = append(spans, pt.spans...)
	pt.spans = spans

	r, err := newReplayer(b, startRecs, spans)
	if err != nil {
		return nil, err
	}
	defer r.close()
	m := map[string]metric{}

	// WAL: the table's WAL files as they stand when traffic stops.
	var walCopies []string
	if b.spec.durable {
		walFiles, _ := filepath.Glob(filepath.Join(b.tabDir, "shard-*.wal"))
		for i, p := range walFiles {
			dst := filepath.Join(r.dir, fmt.Sprintf("copy-%d.wal", i))
			if err := copyFile(dst, p); err != nil {
				return nil, err
			}
			walCopies = append(walCopies, dst)
		}
	}
	bytesPerWrite := 0.0
	if len(walCopies) > 0 {
		if bytesPerWrite, err = r.foldWALs(walCopies, -1); err != nil {
			return nil, err
		}
	}
	payload := walInsertNoPayload
	if bytesPerWrite > walFrameHeader {
		payload = int(math.Round(bytesPerWrite)) - walFrameHeader
	}
	r.walPayload = make([]byte, payload)
	if r.log, err = wal.Open(filepath.Join(r.dir, "replay.wal"), wal.Options{}); err != nil {
		return nil, err
	}

	// Segment: the table's own runs (after a final CompactDisk on an
	// eager durable table, whose runs change under traffic), or runs
	// sealed from the workload's records.
	statsEnd := pt.stats1
	if b.spec.durable {
		if !b.spec.lazy {
			if err := b.tab.CompactDisk(); err != nil {
				return nil, err
			}
		}
		err = r.openTableRuns(b.tabDir)
	} else {
		err = r.sealRuns()
	}
	if err != nil {
		return nil, err
	}
	if err := r.replay(pt); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if len(walCopies) == 0 {
		r.log.Close()
		r.log = nil
		if _, err := r.foldWALs([]string{filepath.Join(r.dir, "replay.wal")}, -1); err != nil {
			return nil, err
		}
	}
	if err := r.coldBlocks(64); err != nil {
		return nil, err
	}
	if err := r.sealAndMerge(pt); err != nil {
		return nil, err
	}
	spans = r.spans
	if err := writeSpans(filepath.Join(b.cfg.dir, fmt.Sprintf("spans-%s-seed%d.csv.gz", b.spec.name, b.cfg.seed)), spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	us := func(xs []float64) float64 { return median(xs) / 1e3 }
	ms := func(xs []float64) float64 { return median(xs) / 1e6 }

	// spatialdb: self time over the serving kernel.
	getK, batchK, countK, selectK := []spanName{spLQGet}, []spanName{spLQGetBatch}, []spanName{spLQCount}, []spanName{spLQRange}
	insK, delK := []spanName{spQTInsert}, []spanName{spQTDelete}
	if b.spec.lazy {
		getK, batchK, countK, selectK = []spanName{spSegFind}, []spanName{spSegFind}, []spanName{spSegScan}, []spanName{spSegScan}
		insK, delK = []spanName{spSegFind}, nil
	}
	if b.spec.durable {
		insK = append(insK, spWALAppend)
		delK = append(delK, spWALAppend)
	}
	m["spatialdb.get_self_us"] = metric{us(selfTimes(spans, spGet, getK...)), "us"}
	m["spatialdb.batch_self_us"] = metric{us(selfTimes(spans, spBatch, batchK...)), "us"}
	m["spatialdb.count_self_us"] = metric{us(selfTimes(spans, spCount, countK...)), "us"}
	m["spatialdb.select_self_us"] = metric{us(selfTimes(spans, spSelect, selectK...)), "us"}
	m["spatialdb.write_self_us"] = metric{us(append(selfTimes(spans, spInsert, insK...), selfTimes(spans, spDelete, delK...)...)), "us"}
	var shardsHit, leaves, scanned, returned, queries float64
	var explained float64
	for _, op := range pt.ops {
		if op.name != spCount && op.name != spSelect {
			continue
		}
		queries++
		shardsHit += float64(len(r.shardsOverlapping(op.win)))
		leaves += float64(op.cost.LeavesVisited)
		scanned += float64(op.cost.RecordsScanned)
		returned += float64(op.n)
		w := op.win
		if e, err := b.tab.Explain(spatialdb.Query{Window: &w}); err == nil {
			explained += e.Blocks
		}
	}
	m["spatialdb.shards_per_query"] = metric{ratio(shardsHit, queries), "count"}
	m["spatialdb.rows_per_result"] = metric{ratio(scanned, returned), "ratio"}
	m["spatialdb.leaves_per_query"] = metric{ratio(leaves, queries), "count"}

	m["linearquad.get_us"] = metric{us(kernelTimes(spans, spGet, spLQGet)), "us"}
	m["linearquad.count_us"] = metric{us(kernelTimes(spans, spCount, spLQCount)), "us"}
	m["linearquad.range_us"] = metric{us(kernelTimes(spans, spSelect, spLQRange)), "us"}
	m["linearquad.getbatch_us"] = metric{us(kernelTimes(spans, spBatch, spLQGetBatch)), "us"}
	m["linearquad.freeze_ms"] = metric{ms(durations(spans, spLQFreeze)), "ms"}
	m["linearquad.freeze_delta_ms"] = metric{ms(durations(spans, spLQFreezeDelta)), "ms"}

	m["quadtree.insert_us"] = metric{us(kernelTimes(spans, spInsert, spQTInsert)), "us"}
	m["quadtree.delete_us"] = metric{us(kernelTimes(spans, spDelete, spQTDelete)), "us"}
	m["quadtree.range_us"] = metric{us(kernelTimes(spans, spSelect, spQTRange)), "us"}

	m["wal.append_us"] = metric{us(durations(spans, spWALAppend)), "us"}
	m["wal.bytes_per_write"] = metric{bytesPerWrite, "bytes"}
	m["wal.fold_ms"] = metric{ms(durations(spans, spWALFold)), "ms"}

	st0 := pt.stats0
	hits, misses := float64(statsEnd.CacheHits-st0.CacheHits), float64(statsEnd.CacheMisses-st0.CacheMisses)
	reads := 0.0
	for _, op := range pt.ops {
		if op.name != spInsert && op.name != spDelete {
			reads++
		}
	}
	m["segment.cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["segment.evictions_per_query"] = metric{ratio(float64(statsEnd.CacheEvictions-st0.CacheEvictions), reads), "count"}
	m["segment.blocks_per_query"] = metric{ratio(float64(r.blocksLoaded), float64(r.scans)), "count"}
	pruned, consulted := float64(statsEnd.RunsPruned-st0.RunsPruned), float64(statsEnd.RunsConsulted-st0.RunsConsulted)
	m["segment.filter_prune_ratio"] = metric{ratio(pruned, pruned+consulted), "ratio"}
	m["segment.find_us"] = metric{us(kernelTimes(spans, spGet, spSegFind)), "us"}
	m["segment.block_us"] = metric{us(durations(spans, spSegBlock)), "us"}
	m["segment.merge_seek_us"] = metric{us(durations(spans, spSegSeek)), "us"}
	m["segment.seal_ms"] = metric{ms(durations(spans, spSegSeal)), "ms"}
	m["segment.merge_ms"] = metric{ms(durations(spans, spSegMerge)), "ms"}
	m["segment.runs_per_shard"] = metric{float64(statsEnd.DiskRuns) / float64(len(r.cells)), "count"}
	sealed := 0
	for si, seq := range seqs1 {
		sealed += seq - seqs0[si]
	}
	m["segment.runs_sealed"] = metric{float64(sealed), "count"}

	m["core.solve_ms"] = metric{ms(durations(spans, spSolve)), "ms"}
	m["core.blocks_residual"] = metric{ratio(leaves, explained), "ratio"}
	m["core.occupancy_residual"] = metric{ratio(statsEnd.MeasuredOccupancy, statsEnd.ModelOccupancy), "ratio"}

	calls := float64(pu.calls)
	m["runtime.allocs_per_op"] = metric{ratio(float64(pu.mallocs), calls), "count"}
	m["runtime.alloc_bytes_per_op"] = metric{ratio(float64(pu.allocBytes), calls), "bytes"}
	m["runtime.gc_cpu_frac"] = metric{ratio(pu.gcCPU, pu.totalCPU), "ratio"}
	pauseP99 := 0.0
	if len(pu.pauses) > 0 {
		pauseP99 = percentile(pu.pauses, 0.99)
	}
	m["runtime.gc_pause_p99_us"] = metric{pauseP99 / 1e3, "us"}

	m["trace.overhead_frac"] = metric{pu.throughput()/pt.throughput() - 1, "ratio"}
	return &result{Correct: true, Attempted: pu.calls + pt.calls, Failed: pu.fails + pt.fails, Metrics: m}, nil
}
