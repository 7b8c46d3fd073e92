package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"popana/internal/dist"
	"popana/internal/geom"
	"popana/internal/spatialdb"
	"popana/internal/xrand"
)

// latKind groups table calls into the latency families reported.
type latKind int

const (
	latGet latKind = iota
	latBatch
	latCount
	latWindow
	latWrite
	nLatKinds
)

var latNames = [nLatKinds]string{"get", "batch", "count", "window", "write"}

// opRec is the input (and, for window queries, the measured cost) of
// one traced table call, kept so the call can be replayed against the
// layers below the table.
type opRec struct {
	name spanName
	span int32 // index of the call's span in the phase's span list
	id   uint64
	loc  geom.Point
	win  geom.Rect
	// batch is the offset of a GetBatch call's ids in the client's
	// batchIDs; n is the number of records a query returned.
	batch int32
	n     int
	cost  spatialdb.Cost
}

// clientTrace is what a client records during the traced phase.
type clientTrace struct {
	spans    []span
	ops      []opRec
	batchIDs []uint64
}

// client is one closed-loop caller: it issues its next call only after
// the previous one returned.
type client struct {
	b   *bench
	idx int
	rng *rand.Rand
	// zipf draws slot ranks (ids) and cellZipf grid cells; nil when the
	// workload draws uniformly.
	zipf, cellZipf *rand.Zipf
	// deadHead indexes the oldest id of the client's dead-id ring.
	deadHead int
	// src generates fresh ingest locations.
	src dist.PointSource

	sc     spatialdb.BatchScratch
	ids    []uint64
	slots  []int
	out    []spatialdb.Record
	found  []bool
	nextOp uint64

	// lat holds latencies (ns) per measurement window and family;
	// calls counts completed calls per window.
	lat   [][nLatKinds][]int64
	calls []int64
	fails int64
	win   int32 // window of the call in progress
	// nextCheck counts Select calls, to check a sample of them.
	nextCheck int
	tr        *clientTrace
	// mismatch is the first wrong answer seen; the run fails on it.
	mismatch error
}

func newClient(b *bench, idx int) *client {
	seed := int64(xrand.Derive(b.cfg.seed, 1, uint64(idx)))
	c := &client{
		b:     b,
		idx:   idx,
		rng:   rand.New(rand.NewSource(seed)),
		ids:   make([]uint64, batchSize),
		slots: make([]int, batchSize),
		out:   make([]spatialdb.Record, batchSize),
		found: make([]bool, batchSize),
	}
	if b.spec.zipfS > 0 && b.slots != nil {
		c.zipf = rand.NewZipf(c.rng, b.spec.zipfS, 1, uint64(len(b.slots.slots)-1))
		c.cellZipf = rand.NewZipf(c.rng, b.spec.zipfS, 1, gridCells*gridCells-1)
	}
	if b.stream != nil {
		c.src = pointSource(false, xrand.New(xrand.Derive(b.cfg.seed, 2, uint64(idx))))
	}
	return c
}

// loop issues calls until stop is set.
func (c *client) loop(stop *atomic.Bool) {
	for !stop.Load() {
		c.step()
	}
}

func (c *client) step() {
	c.win = c.b.win.Load()
	ch := c.b.spec.pick(c.rng.Float64())
	if c.b.stream != nil && len(c.b.stream.live) == 0 {
		ch = chInsert
	}
	switch ch {
	case chGet:
		c.get()
	case chBatch:
		c.getBatch()
	case chCount:
		c.count()
	case chSelect:
		c.selectWindow()
	case chPair:
		c.pair()
	case chInsert:
		c.insert()
	case chDelete:
		c.delete()
	}
}

// finish records one table call's latency and, when tracing, its
// span; it returns the span index (-1 untraced).
func (c *client) finish(k latKind, name spanName, start, end int64) int32 {
	c.lat[c.win][k] = append(c.lat[c.win][k], end-start)
	c.calls[c.win]++
	if c.tr == nil {
		return -1
	}
	c.nextOp++
	c.tr.spans = append(c.tr.spans, span{name: name, parent: -1, op: uint64(c.idx)<<48 | c.nextOp, start: start, end: end})
	return int32(len(c.tr.spans) - 1)
}

func (c *client) trace(op opRec) {
	if c.tr != nil {
		c.tr.ops = append(c.tr.ops, op)
	}
}

func (c *client) fail(err error) {
	if c.mismatch == nil {
		c.mismatch = err
	}
}

// pickSlot returns a slot index (fixed-size workloads) or an index
// into the live list (ingest).
func (c *client) pickSlot() int {
	if c.zipf != nil {
		return int(c.zipf.Uint64())
	}
	if c.b.slots != nil {
		return c.rng.Intn(len(c.b.slots.slots))
	}
	return c.rng.Intn(len(c.b.stream.live))
}

// idAt loads the id in slot s.
func (c *client) idAt(s int) uint64 {
	if c.b.slots != nil {
		return c.b.slots.slots[s].Load()
	}
	return c.b.stream.live[s]
}

// stillLive reports whether the model still holds id in slot s; a
// read of an id a concurrent write replaced may answer either way.
func (c *client) stillLive(s int, id uint64) bool {
	if c.b.slots != nil {
		return c.b.slots.slots[s].Load() == id
	}
	return true
}

// checkRecord verifies a point read of id from slot s.
func (c *client) checkRecord(s int, id uint64, rec spatialdb.Record, ok bool) {
	if ok {
		if rec.ID != id || rec.Loc != c.b.locs[id] {
			c.fail(fmt.Errorf("Get(%d) = id %d at %v, want %v", id, rec.ID, rec.Loc, c.b.locs[id]))
		}
		return
	}
	if c.stillLive(s, id) {
		c.fail(fmt.Errorf("Get(%d): live record not found", id))
	}
}

func (c *client) get() {
	s := c.pickSlot()
	id := c.idAt(s)
	start := c.b.now()
	rec, ok := c.b.tab.Get(id)
	sp := c.finish(latGet, spGet, start, c.b.now())
	c.trace(opRec{name: spGet, span: sp, id: id, loc: c.b.locs[id]})
	c.checkRecord(s, id, rec, ok)
}

func (c *client) getBatch() {
	for i := range c.ids {
		c.slots[i] = c.pickSlot()
		c.ids[i] = c.idAt(c.slots[i])
	}
	start := c.b.now()
	c.b.tab.GetBatch(&c.sc, c.ids, c.out, c.found)
	sp := c.finish(latBatch, spBatch, start, c.b.now())
	if c.tr != nil {
		c.trace(opRec{name: spBatch, span: sp, batch: int32(len(c.tr.batchIDs))})
		c.tr.batchIDs = append(c.tr.batchIDs, c.ids...)
	}
	for i, id := range c.ids {
		c.checkRecord(c.slots[i], id, c.out[i], c.found[i])
	}
}

// window returns a query rectangle of the given side, centred on a
// live record or, for grid windows, inside a Zipf-popular grid cell.
func (c *client) window(side float64, grid bool) geom.Rect {
	var cx, cy float64
	if grid {
		cell := c.b.cellPerm[c.cellZipf.Uint64()]
		cx = (float64(cell%gridCells) + c.rng.Float64()) / gridCells
		cy = (float64(cell/gridCells) + c.rng.Float64()) / gridCells
	} else {
		p := c.b.locs[c.idAt(c.rng.Intn(c.liveCount()))]
		cx, cy = p.X, p.Y
	}
	h := side / 2
	return geom.R(max(0, cx-h), max(0, cy-h), min(1, cx+h), min(1, cy+h))
}

func (c *client) liveCount() int {
	if c.b.slots != nil {
		return len(c.b.slots.slots)
	}
	return len(c.b.stream.live)
}

func (c *client) count() {
	w := c.window(c.b.spec.countSide, false)
	start := c.b.now()
	n, cost, err := c.b.tab.CountRange(w, 0)
	sp := c.finish(latCount, spCount, start, c.b.now())
	if err != nil {
		c.fails++
		return
	}
	c.trace(opRec{name: spCount, span: sp, win: w, n: n, cost: cost})
}

func (c *client) selectWindow() {
	w := c.window(c.b.spec.selectSide, c.b.spec.gridWindows)
	start := c.b.now()
	recs, cost, err := c.b.tab.Select(spatialdb.Query{Window: &w})
	sp := c.finish(latWindow, spSelect, start, c.b.now())
	if err != nil {
		c.fails++
		return
	}
	c.trace(opRec{name: spSelect, span: sp, win: w, n: len(recs), cost: cost})
	// Checking every result would make the check a large share of the
	// client's own time; one call in eight keeps the offered load close
	// to what an embedding caller issues.
	if c.nextCheck++; c.nextCheck%8 != 0 {
		return
	}
	for _, r := range recs {
		if r.ID >= uint64(len(c.b.locs)) || c.b.locs[r.ID] != r.Loc || !w.ContainsClosed(r.Loc) {
			c.fail(fmt.Errorf("Select(%v) returned id %d at %v", w, r.ID, r.Loc))
			return
		}
	}
}

// pair replaces one of the client's slots: Insert a dead id, publish
// it in the slot, then Delete the id it replaced. Publishing before
// the Delete keeps every id a reader can load from a slot live in the
// table until the slot has moved on.
func (c *client) pair() {
	m := c.b.slots
	clients := c.b.spec.clients
	from := c.b.writeFrom
	s := from + c.idx + clients*c.rng.Intn((len(m.slots)-from)/clients)
	old := m.slots[s].Load()
	ring := m.dead[c.idx]
	nid := ring[c.deadHead]
	rec := spatialdb.Record{ID: nid, Loc: c.b.locs[nid]}
	start := c.b.now()
	err := c.b.tab.Insert(rec)
	sp := c.finish(latWrite, spInsert, start, c.b.now())
	if err != nil {
		c.fails++
		return
	}
	c.trace(opRec{name: spInsert, span: sp, id: nid, loc: rec.Loc})
	m.slots[s].Store(nid)
	ring[c.deadHead] = old
	c.deadHead = (c.deadHead + 1) % len(ring)
	c.deleteID(old)
}

func (c *client) deleteID(id uint64) {
	start := c.b.now()
	ok, err := c.b.tab.DeleteChecked(id)
	sp := c.finish(latWrite, spDelete, start, c.b.now())
	if err != nil {
		c.fails++
		return
	}
	c.trace(opRec{name: spDelete, span: sp, id: id, loc: c.b.locs[id]})
	if !ok {
		c.fail(fmt.Errorf("Delete(%d): live record not found", id))
	}
}

// insert adds a fresh id at a new uniform location (ingest).
func (c *client) insert() {
	b, m := c.b, c.b.stream
	id := uint64(len(b.locs))
	b.locs = append(b.locs, c.src.Next())
	rec := spatialdb.Record{ID: id, Loc: b.locs[id]}
	start := c.b.now()
	err := c.b.tab.Insert(rec)
	sp := c.finish(latWrite, spInsert, start, c.b.now())
	if err != nil {
		c.fails++
		return
	}
	c.trace(opRec{name: spInsert, span: sp, id: id, loc: rec.Loc})
	m.live = append(m.live, id)
}

// delete removes a random live id (ingest).
func (c *client) delete() {
	m := c.b.stream
	i := c.rng.Intn(len(m.live))
	id := m.live[i]
	m.live[i] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
	m.deleted = append(m.deleted, id)
	c.deleteID(id)
}
