package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"popana/internal/geom"
	"popana/internal/spatialdb"
	"popana/internal/xrand"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string
	// scale multiplies the table sizes: 1 when run as a command, small
	// in tests.
	scale float64
}

// capacity is the node capacity of every benchmarked table.
const capacity = 8

// bench is one run of one workload.
type bench struct {
	cfg  config
	spec *spec
	base time.Time
	dir  string // the run's private directory

	// locs is the location of every record id; ingest appends to it.
	locs   []geom.Point
	slots  *slotModel   // fixed-size workloads
	stream *streamModel // ingest
	// cellPerm maps Zipf ranks to grid cells, so popular cells scatter.
	cellPerm []int
	records  int
	// writeFrom is the first slot writes may replace: past the
	// compacted base and delta runs on lazy-zipf, 0 elsewhere.
	writeFrom int

	db      *spatialdb.DB
	tab     *spatialdb.Table
	tabDir  string
	clients []*client
	// win is the measurement window clients file their calls under.
	win atomic.Int32
}

func (b *bench) now() int64 { return int64(time.Since(b.base)) }

func newBench(cfg config) (*bench, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, spec: sp, base: time.Now()}
	b.dir = filepath.Join(cfg.dir, fmt.Sprintf("%s-%d", sp.name, os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.seed)
	if sp.records > 0 {
		b.records = max(int(float64(sp.records)*cfg.scale), 64)
		b.records -= b.records % sp.clients
		pool := max(int(float64(sp.pool)*cfg.scale), 16)
		b.locs = distinctPoints(pointSource(sp.clustered, rng), b.records+pool)
		b.slots = newSlotModel(b.records, len(b.locs), sp.clients)
		if sp.lazy {
			b.writeFrom = b.records - b.tailSize()
			b.writeFrom -= b.writeFrom % sp.clients
		}
	} else {
		b.stream = &streamModel{}
	}
	b.cellPerm = rand.New(rand.NewSource(int64(xrand.Derive(cfg.seed, 3)))).Perm(gridCells * gridCells)
	return b, nil
}

// close releases the table and removes the run's files.
func (b *bench) close() {
	if b.tab != nil {
		b.tab.Kill()
	}
	os.RemoveAll(b.dir)
}

// initialRecords returns the records a fixed-size workload loads.
func (b *bench) initialRecords() []spatialdb.Record {
	return b.recordsOf(0, b.records)
}

// recordsOf returns the records of ids lo..hi-1.
func (b *bench) recordsOf(lo, hi int) []spatialdb.Record {
	recs := make([]spatialdb.Record, hi-lo)
	for i := range recs {
		recs[i] = spatialdb.Record{ID: uint64(lo + i), Loc: b.locs[lo+i]}
	}
	return recs
}

// tailSize is the number of records lazy-zipf's set-up leaves in the
// WAL tail.
func (b *bench) tailSize() int {
	return max(int(float64(b.spec.tailSize)*b.cfg.scale), 4)
}

// setupOnce builds the workload's table from scratch and returns the
// time the table calls took; generating the inputs is not timed.
func (b *bench) setupOnce(i int) (time.Duration, error) {
	if b.tab != nil {
		b.tab.Kill()
		b.tab = nil
		if b.tabDir != "" {
			os.RemoveAll(b.tabDir)
		}
	}
	b.db = spatialdb.NewDB()
	opts := spatialdb.TableOptions{Capacity: capacity}
	sp := b.spec
	switch {
	case !sp.durable:
		recs := b.initialRecords()
		start := time.Now()
		tab, err := b.db.CreateTableWith("bench", opts)
		if err != nil {
			return 0, err
		}
		if err := tab.InsertBatch(recs); err != nil {
			return 0, err
		}
		if err := tab.Compact(); err != nil {
			return 0, err
		}
		b.tab = tab
		return time.Since(start), nil
	case sp.lazy:
		b.tabDir = filepath.Join(b.dir, fmt.Sprintf("table-%d", i))
		return b.setupLazy(opts)
	default:
		b.tabDir = filepath.Join(b.dir, fmt.Sprintf("table-%d", i))
		dopts := sp.dopts
		dopts.Dir = b.tabDir
		start := time.Now()
		tab, err := b.db.CreateDurableTable("bench", opts, dopts)
		if err != nil {
			return 0, err
		}
		b.tab = tab
		return time.Since(start), nil
	}
}

// setupLazy builds the lazy-zipf table: an eager durable table loads a
// compacted base, seals delta runs on top and leaves a WAL tail (the
// last records, and a tombstone for every dead id), is killed, and is
// reopened lazy.
func (b *bench) setupLazy(opts spatialdb.TableOptions) (time.Duration, error) {
	sp := b.spec
	recs := b.initialRecords()
	deltaSize := max(int(float64(sp.deltaSize)*b.cfg.scale), 4)
	baseN := len(recs) - sp.deltaRuns*deltaSize - b.tailSize()
	dead := b.recordsOf(b.records, len(b.locs))
	start := time.Now()
	eager, err := b.db.CreateDurableTable("bench", opts, spatialdb.DurableOptions{Dir: b.tabDir})
	if err != nil {
		return 0, err
	}
	const chunk = 50_000
	for lo := 0; lo < baseN; lo += chunk {
		if err := eager.InsertBatch(recs[lo:min(lo+chunk, baseN)]); err != nil {
			return 0, err
		}
	}
	if err := eager.CompactDisk(); err != nil {
		return 0, err
	}
	lo := baseN
	for r := 0; r < sp.deltaRuns; r++ {
		if err := eager.InsertBatch(recs[lo : lo+deltaSize]); err != nil {
			return 0, err
		}
		if err := eager.Flush(); err != nil {
			return 0, err
		}
		lo += deltaSize
	}
	if err := eager.InsertBatch(recs[lo:]); err != nil {
		return 0, err
	}
	if err := eager.InsertBatch(dead); err != nil {
		return 0, err
	}
	for _, r := range dead {
		if _, err := eager.DeleteChecked(r.ID); err != nil {
			return 0, err
		}
	}
	eager.Kill()
	b.db = spatialdb.NewDB()
	tab, err := b.db.OpenDurableTable("bench", spatialdb.TableOptions{}, spatialdb.DurableOptions{Dir: b.tabDir, Lazy: true})
	if err != nil {
		return 0, err
	}
	b.tab = tab
	return time.Since(start), nil
}

// windows is the number of equal windows a measured phase is split
// into. Each window yields its own throughput and median latency and
// the run reports their medians, so a burst of interference from
// outside the process moves one window, not the result.
const windows = 10

// phase is what one measured stretch of client traffic produced.
type phase struct {
	elapsed      time.Duration
	calls, fails int64
	// lat, winCalls and winSecs are per window.
	lat      [][nLatKinds][]int64
	winCalls []int64
	winSecs  []float64
	spans    []span
	ops      []opRec
	batchIDs []uint64
	// Runtime counters over the phase: allocations, GC and total CPU
	// seconds, and the GC pauses.
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
	pauses              []int64
	// The table's Stats when the phase began and ended.
	stats0, stats1 spatialdb.Stats
}

// absorb adds q's calls and runtime counters to p, for a measurement
// split into several phases.
func (p *phase) absorb(q *phase) {
	p.elapsed += q.elapsed
	p.calls += q.calls
	p.fails += q.fails
	p.mallocs += q.mallocs
	p.allocBytes += q.allocBytes
	p.gcCPU += q.gcCPU
	p.totalCPU += q.totalCPU
	p.pauses = append(p.pauses, q.pauses...)
}

func (p *phase) throughput() float64 { return float64(p.calls) / p.elapsed.Seconds() }

// windowed returns the median over windows of f applied to each
// window's samples of family k.
func (p *phase) windowed(k latKind, f func([]int64) float64) float64 {
	vals := make([]float64, len(p.lat))
	for w := range p.lat {
		vals[w] = f(p.lat[w][k])
	}
	return median(vals)
}

// windowedThroughput is the median over windows of calls per second.
func (p *phase) windowedThroughput() float64 {
	vals := make([]float64, len(p.winCalls))
	for w := range vals {
		vals[w] = float64(p.winCalls[w]) / p.winSecs[w]
	}
	return median(vals)
}

// pooled returns the q-quantile of family k over every window's
// samples together: a tail percentile needs the samples of the whole
// phase to have enough of them beyond it.
func (p *phase) pooled(k latKind, q float64) float64 {
	var all []int64
	for w := range p.lat {
		all = append(all, p.lat[w][k]...)
	}
	return percentile(all, q)
}

// samples returns the number of latency samples of family k.
func (p *phase) samples(k latKind) int {
	n := 0
	for w := range p.lat {
		n += len(p.lat[w][k])
	}
	return n
}

// runPhase drives the clients for d, split into nwin windows, and
// gathers what they recorded.
func (b *bench) runPhase(d time.Duration, nwin int, traced bool) (*phase, error) {
	if b.clients == nil {
		for i := 0; i < b.spec.clients; i++ {
			b.clients = append(b.clients, newClient(b, i))
		}
	}
	b.win.Store(0)
	for _, c := range b.clients {
		c.lat = make([][nLatKinds][]int64, nwin)
		c.calls = make([]int64, nwin)
		c.fails = 0
		c.tr = nil
		if traced {
			c.tr = &clientTrace{}
		}
	}
	p := &phase{lat: make([][nLatKinds][]int64, nwin), winCalls: make([]int64, nwin), winSecs: make([]float64, nwin)}
	p.stats0 = b.tab.Stats()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	gc0 := readGC()
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(&stop)
		}(c)
	}
	prev := time.Duration(0)
	for w := 0; w < nwin; w++ {
		end := d * time.Duration(w+1) / time.Duration(nwin)
		time.Sleep(end - time.Since(start))
		if w < nwin-1 {
			b.win.Add(1)
		}
		now := time.Since(start)
		p.winSecs[w] = (now - prev).Seconds()
		prev = now
	}
	stop.Store(true)
	wg.Wait()
	p.elapsed = time.Since(start)
	p.winSecs[nwin-1] = (p.elapsed - d*time.Duration(nwin-1)/time.Duration(nwin)).Seconds()
	gc1 := readGC()
	runtime.ReadMemStats(&mem1)
	p.stats1 = b.tab.Stats()
	p.mallocs = mem1.Mallocs - mem0.Mallocs
	p.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
	p.gcCPU, p.totalCPU = gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU
	p.pauses = gcPauses(&mem0, &mem1)
	for _, c := range b.clients {
		if c.mismatch != nil {
			return nil, fmt.Errorf("%s: wrong answer during traffic: %w", b.spec.name, c.mismatch)
		}
		p.fails += c.fails
		for w := range c.lat {
			p.calls += c.calls[w]
			p.winCalls[w] += c.calls[w]
			for k := range c.lat[w] {
				p.lat[w][k] = append(p.lat[w][k], c.lat[w][k]...)
			}
		}
		if c.tr != nil {
			off := int32(len(p.spans))
			p.spans = append(p.spans, c.tr.spans...)
			boff := int32(len(p.batchIDs))
			p.batchIDs = append(p.batchIDs, c.tr.batchIDs...)
			for _, op := range c.tr.ops {
				op.span += off
				op.batch += boff
				p.ops = append(p.ops, op)
			}
			c.tr = nil
		}
	}
	sort.Slice(p.ops, func(i, j int) bool { return p.spans[p.ops[i].span].start < p.spans[p.ops[j].span].start })
	return p, nil
}

// warmup runs untimed traffic so caches fill and snapshots settle.
func (b *bench) warmup() error {
	_, err := b.runPhase(time.Duration(min(b.cfg.seconds/2, 3)*float64(time.Second)), 1, false)
	return err
}

// liveIDs and deadIDs return the model's view with clients stopped.
func (b *bench) liveIDs() []uint64 {
	if b.slots != nil {
		return b.slots.live()
	}
	return append([]uint64(nil), b.stream.live...)
}

func (b *bench) deadIDs() []uint64 {
	if b.slots != nil {
		return b.slots.deadIDs()
	}
	return b.stream.deleted
}

func (b *bench) liveRecords() []spatialdb.Record {
	ids := b.liveIDs()
	recs := make([]spatialdb.Record, len(ids))
	for i, id := range ids {
		recs[i] = spatialdb.Record{ID: id, Loc: b.locs[id]}
	}
	return recs
}

// check compares the table with the model exactly: Len, a Get of
// every live and every dead id, and sampled window queries against
// brute force. Clients must be stopped.
func (b *bench) check(tab *spatialdb.Table, salt uint64) error {
	live, dead := b.liveIDs(), b.deadIDs()
	if n := tab.Len(); n != len(live) {
		return fmt.Errorf("Len = %d, model holds %d", n, len(live))
	}
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(live)+len(dead); i += 2 {
				if firstErr.Load() != nil {
					return
				}
				var err error
				if i < len(live) {
					id := live[i]
					if rec, ok := tab.Get(id); !ok || rec.ID != id || rec.Loc != b.locs[id] {
						err = fmt.Errorf("Get(%d) = %v, %v; want the record at %v", id, rec, ok, b.locs[id])
					}
				} else if _, ok := tab.Get(dead[i-len(live)]); ok {
					err = fmt.Errorf("Get(%d) found a deleted record", dead[i-len(live)])
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
		}(w)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return *e
	}
	rng := rand.New(rand.NewSource(int64(xrand.Derive(b.cfg.seed, 4, salt))))
	for q := 0; q < 32; q++ {
		c := b.locs[live[rng.Intn(len(live))]]
		side := b.spec.selectSide * (0.5 + 2*rng.Float64())
		w := geom.R(max(0, c.X-side), max(0, c.Y-side), min(1, c.X+side), min(1, c.Y+side))
		var want []uint64
		for _, id := range live {
			if w.ContainsClosed(b.locs[id]) {
				want = append(want, id)
			}
		}
		n, _, err := tab.CountRange(w, 0)
		if err != nil {
			return fmt.Errorf("CountRange(%v): %w", w, err)
		}
		if n != len(want) {
			return fmt.Errorf("CountRange(%v) = %d, brute force %d", w, n, len(want))
		}
		recs, _, err := tab.Select(spatialdb.Query{Window: &w})
		if err != nil {
			return fmt.Errorf("Select(%v): %w", w, err)
		}
		got := make([]uint64, len(recs))
		for i, r := range recs {
			got[i] = r.ID
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("Select(%v) returned %d ids, brute force %d, or different ids", w, len(got), len(want))
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// dropTable kills the served table and clears every reference the
// run holds to it, so a collection can reclaim it.
func (b *bench) dropTable() {
	b.tab.Kill()
	b.tab = nil
	b.db = nil
	for _, c := range b.clients {
		c.sc = spatialdb.BatchScratch{}
		clear(c.out)
	}
}

// reopen opens the durable table again, as after a crash.
func (b *bench) reopen() (*spatialdb.Table, time.Duration, error) {
	db := spatialdb.NewDB()
	start := time.Now()
	tab, err := db.OpenDurableTable("bench", spatialdb.TableOptions{}, spatialdb.DurableOptions{Dir: b.tabDir, Lazy: b.spec.lazy})
	return tab, time.Since(start), err
}

// reload rebuilds an in-memory table from the live records: the only
// recovery an in-memory table has.
func (b *bench) reload() (*spatialdb.Table, time.Duration, error) {
	recs := b.liveRecords()
	db := spatialdb.NewDB()
	start := time.Now()
	tab, err := db.CreateTableWith("bench", spatialdb.TableOptions{Capacity: capacity})
	if err == nil {
		err = tab.InsertBatch(recs)
	}
	if err == nil {
		err = tab.Compact()
	}
	return tab, time.Since(start), err
}

// recoveries is how many times the end of a run recovers the table to
// time recovery.
const recoveries = 5

// finale is what the end of a run measures once clients stop.
type finale struct {
	heapMB, spaceAmp float64
	recover          []float64
}

// finish compacts (durable), measures the table's heap and space,
// drops it, and times recovery, checking the recovered table against
// the model.
func (b *bench) finish() (*finale, error) {
	f := &finale{}
	var diskBytes int64
	if b.spec.durable {
		if err := b.tab.CompactDisk(); err != nil {
			return nil, fmt.Errorf("final CompactDisk: %w", err)
		}
		var err error
		if diskBytes, err = dirBytes(b.tabDir); err != nil {
			return nil, err
		}
	}
	live := b.tab.Len()
	with := liveHeap()
	b.dropTable()
	without := liveHeap()
	heap := float64(int64(with) - int64(without))
	f.heapMB = heap / 1e6
	if b.spec.durable {
		f.spaceAmp = float64(diskBytes) / float64(live*24)
	} else {
		f.spaceAmp = heap / float64(live*24)
	}
	for i := 0; i < recoveries; i++ {
		var tab *spatialdb.Table
		var d time.Duration
		var err error
		if b.spec.durable {
			tab, d, err = b.reopen()
		} else {
			tab, d, err = b.reload()
		}
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		f.recover = append(f.recover, d.Seconds())
		if i == 0 {
			if err := b.check(tab, 99); err != nil {
				tab.Kill()
				return nil, fmt.Errorf("recovered table differs from the acknowledged writes: %w", err)
			}
		}
		tab.Kill()
	}
	return f, nil
}

// gcSample is the process's cumulative GC and total CPU time.
type gcSample struct{ gcCPU, totalCPU float64 }

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64()}
}

// gcPauses returns the stop-the-world pauses (ns) of the collections
// between two MemStats readings (at most the last 256).
func gcPauses(m0, m1 *runtime.MemStats) []int64 {
	n := min(int(m1.NumGC-m0.NumGC), len(m1.PauseNs))
	ps := make([]int64, n)
	for i := range ps {
		ps[i] = int64(m1.PauseNs[(int(m1.NumGC)-1-i+len(m1.PauseNs))%len(m1.PauseNs)])
	}
	return ps
}
