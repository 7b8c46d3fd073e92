package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tiny runs one workload at a small size and duration.
func tiny(t *testing.T, workload string, seed uint64, trace bool) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: seed, seconds: 0.5, trace: trace, dir: t.TempDir(), scale: 0.01}, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func units(res *result) map[string]string {
	out := map[string]string{}
	for n, m := range res.Metrics {
		out[n] = m.Unit
	}
	return out
}

// TestSmokeEveryWorkload runs each workload end to end and traced at a
// tiny size: every answer checks out, and the metrics printed are
// exactly the ones BENCHMARK.json declares, with the same units. It
// covers lazy-zipf too, which BENCHMARK.json does not list.
func TestSmokeEveryWorkload(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			if got := units(tiny(t, w, 1, false)); !reflect.DeepEqual(got, wantE2E) {
				t.Errorf("end-to-end metrics %v, want %v", got, wantE2E)
			}
			res := tiny(t, w, 1, true)
			if got := units(res); !reflect.DeepEqual(got, wantLayer) {
				t.Errorf("per-layer metrics %v, want %v", got, wantLayer)
			}
			for n, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", n, m.Value)
				}
			}
		})
	}
}

// TestSecondSeed checks that another seed gives other inputs but the
// same metric set, and the same seed the same inputs.
func TestSecondSeed(t *testing.T) {
	a := tiny(t, "mem-mixed", 1, false)
	b := tiny(t, "mem-mixed", 2, false)
	if !reflect.DeepEqual(units(a), units(b)) {
		t.Fatalf("seed 2 metric set %v differs from seed 1's %v", units(b), units(a))
	}
	inputs := func(seed uint64) []float64 {
		b, err := newBench(config{workload: "mem-mixed", seed: seed, seconds: 1, dir: t.TempDir(), scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		var xs []float64
		for _, p := range b.locs[:16] {
			xs = append(xs, p.X, p.Y)
		}
		return xs
	}
	if !reflect.DeepEqual(inputs(7), inputs(7)) {
		t.Error("the same seed generated different inputs")
	}
	if reflect.DeepEqual(inputs(7), inputs(8)) {
		t.Error("different seeds generated the same inputs")
	}
}

// TestCheckCatchesDivergence makes the table drift from the model
// behind the benchmark's back: the end-of-run check must fail.
func TestCheckCatchesDivergence(t *testing.T) {
	for _, w := range []string{"mem-mixed", "durable-ingest"} {
		t.Run(w, func(t *testing.T) {
			b, err := newBench(config{workload: w, seed: 3, seconds: 0.2, dir: t.TempDir(), scale: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if _, err := b.setupOnce(0); err != nil {
				t.Fatal(err)
			}
			if _, err := b.runPhase(b.measured(), 2, false); err != nil {
				t.Fatal(err)
			}
			if err := b.check(b.tab, 0); err != nil {
				t.Fatalf("check of an untouched table: %v", err)
			}
			live := b.liveIDs()
			b.tab.Delete(live[len(live)/2])
			if err := b.check(b.tab, 0); err == nil {
				t.Fatal("check passed on a table missing a live record")
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: spGet, parent: -1, start: 0, end: 100},
		{name: spLQGet, parent: 0, start: 200, end: 230},
		{name: spSegFind, parent: 0, start: 300, end: 310},
		{name: spGet, parent: -1, start: 400, end: 450},
		{name: spLQGet, parent: 3, start: 500, end: 505},
		{name: spLQGet, parent: 3, start: 600, end: 605},
		{name: spLQFreeze, parent: -1, start: 700, end: 800},
	}
	if got, want := selfTimes(spans, spGet, spLQGet), []float64{70, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("self over linearquad = %v, want %v", got, want)
	}
	if got, want := selfTimes(spans, spGet, spLQGet, spSegFind), []float64{60, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("self over both kernels = %v, want %v", got, want)
	}
	got := kernelTimes(spans, spGet, spLQGet)
	sort.Float64s(got)
	if want := []float64{10, 30}; !reflect.DeepEqual(got, want) {
		t.Errorf("kernel times = %v, want %v", got, want)
	}
	if got, want := durations(spans, spLQFreeze), []float64{100}; !reflect.DeepEqual(got, want) {
		t.Errorf("durations = %v, want %v", got, want)
	}
}

func TestPick(t *testing.T) {
	s := &spec{mix: mixOf(map[choice]float64{chGet: .5, chCount: .25, chPair: .25})}
	for _, c := range []struct {
		x    float64
		want choice
	}{{0, chGet}, {0.49, chGet}, {0.5, chCount}, {0.8, chPair}, {math.Nextafter(1, 0), chPair}, {1, chPair}} {
		if got := s.pick(c.x); got != c.want {
			t.Errorf("pick(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	for _, sp := range specs {
		sum := 0.0
		for _, w := range sp.mix {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: mix sums to %v", sp.name, sum)
		}
	}
}
