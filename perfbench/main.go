// Command perfbench is the repository benchmark: a single-process,
// closed-loop benchmark of spatialdb.Table through its public API. It
// runs one named workload, checks every answer against its own model
// of the table, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer ledger) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it
// first; see README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procs is the parallelism the workloads are defined for: one client
// goroutine, plus the table's background worker where it has one, on
// two CPUs. It also fixes the table's default shard layout (4 shards).
const procs = 2

// tails is the tail percentile reported per latency family, and its
// name in the metric. A tail is only steady away from the edge between
// two kinds of call. On mem-mixed about 1% of CountRange and Select
// calls rebuild a stale shard snapshot, so their p99 falls on that edge
// and jumps between fast calls and rebuilds from run to run; their
// p99.5 lies inside the rebuilds. On durable-ingest about 0.5-1% of Get
// and GetBatch calls wait behind a background flush, so there it is
// p99.5 that falls on the edge, and p99 lies below it. In a 30 s run
// the rarest family still has some 35 samples beyond its tail.
var tails = [nLatKinds]struct {
	q    float64
	name string
}{
	latGet:    {0.99, "p99"},
	latBatch:  {0.99, "p99"},
	latCount:  {0.995, "p995"},
	latWindow: {0.995, "p995"},
	latWrite:  {0.99, "p99"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are extra report lines, such as sample counts.
	notes []string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: mem-mixed, lazy-zipf or durable-ingest")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of each measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced ledger instead of the end-to-end measurement")
	flag.Parse()
	cfg.dir = filepath.Join(".bench_build", "work")
	cfg.scale = 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark invocation, writing a readable report to
// w. A wrong answer anywhere is an error.
func run(cfg config, w io.Writer) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(procs)
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	var res *result
	if cfg.trace {
		res, err = b.runTraced()
	} else {
		res, err = b.runEndToEnd()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	report(w, cfg, res)
	return res, nil
}

// runEndToEnd sets up several times, measures one untraced phase, and
// ends with the exact check, space, heap and recovery.
func (b *bench) runEndToEnd() (*result, error) {
	var setups []float64
	for i := 0; i < b.spec.setups; i++ {
		d, err := b.setupOnce(i)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	if err := b.warmup(); err != nil {
		return nil, err
	}
	p, err := b.runPhase(b.measured(), windows, false)
	if err != nil {
		return nil, err
	}
	if err := b.check(b.tab, 0); err != nil {
		return nil, fmt.Errorf("end-of-run check: %w", err)
	}
	f, err := b.finish()
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_ops_s": {p.windowedThroughput(), "1/s"},
		"recover_s":        {median(f.recover), "s"},
		"space_amp":        {f.spaceAmp, "ratio"},
		"heap_live_mb":     {f.heapMB, "MB"},
	}
	for k := latKind(0); k < nLatKinds; k++ {
		m[latNames[k]+"_p50_us"] = metric{p.windowed(k, p50) / 1e3, "us"}
		m[latNames[k]+"_"+tails[k].name+"_us"] = metric{p.pooled(k, tails[k].q) / 1e3, "us"}
	}
	res := &result{Correct: true, Attempted: p.calls, Failed: p.fails, Metrics: m}
	for k := latKind(0); k < nLatKinds; k++ {
		res.notes = append(res.notes, fmt.Sprintf("%s latency: %d samples; p50 is the median over %d windows, %s is over all samples", latNames[k], p.samples(k), windows, tails[k].name))
	}
	return res, nil
}

func (b *bench) measured() time.Duration {
	return time.Duration(b.cfg.seconds * float64(time.Second))
}

// report prints every metric with its unit, one a line.
func report(w io.Writer, cfg config, res *result) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g %s: attempted=%d failed=%d fail_ratio=%g\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}
