package main

import (
	"fmt"

	"popana/internal/spatialdb"
)

// choice is one kind of client request.
type choice int

const (
	chGet choice = iota
	chBatch
	chCount
	chSelect
	chPair   // Insert of a dead id, then Delete of the slot's old id
	chInsert // Insert of a fresh id (ingest)
	chDelete // Delete of a random live id (ingest)
	nChoices
)

// spec describes one workload. Shares in mix sum to 1.
type spec struct {
	name    string
	clients int
	// records is the table size the fixed-size workloads hold steady;
	// pool is the number of extra ids writes cycle through.
	records, pool int
	clustered     bool
	durable, lazy bool
	mix           [nChoices]float64
	// countSide and selectSide are the window sides of CountRange and
	// Select; gridWindows places Select windows by a Zipfian draw over
	// a gridCells×gridCells grid instead of centring them on a record.
	countSide, selectSide float64
	gridWindows           bool
	// zipfS is the Zipf exponent of id (and grid-cell) popularity; 0
	// draws ids uniformly.
	zipfS float64
	// setups is how many times a run builds the table to time set-up.
	setups int
	// dopts are the durable options of the served table.
	dopts spatialdb.DurableOptions
	// lazy-zipf set-up: delta runs sealed and WAL-tail inserts left on
	// top of the compacted base. Its writes replace only the tail's
	// records, with the pool's ids, whose tombstones the set-up also
	// leaves in the tail, so the tail keeps one size for the whole run.
	deltaRuns, deltaSize, tailSize int
}

const gridCells = 64

// batchSize is the GetBatch probe count of every workload.
const batchSize = 64

var specs = []*spec{
	{
		name:       "mem-mixed",
		clients:    1,
		records:    256 << 10,
		pool:       64 << 10,
		clustered:  true,
		mix:        mixOf(map[choice]float64{chGet: .50, chBatch: .05, chCount: .20, chSelect: .15, chPair: .10}),
		countSide:  0.02,
		selectSide: 0.01,
		zipfS:      1.1,
		setups:     5,
	},
	{
		name:        "lazy-zipf",
		clients:     1,
		records:     400_000,
		pool:        4000,
		durable:     true,
		lazy:        true,
		mix:         mixOf(map[choice]float64{chGet: .45, chBatch: .10, chCount: .10, chSelect: .25, chPair: .10}),
		countSide:   0.005,
		selectSide:  0.005,
		gridWindows: true,
		zipfS:       1.1,
		setups:      3,
		deltaRuns:   2,
		deltaSize:   4000,
		tailSize:    4000,
	},
	{
		name:       "durable-ingest",
		clients:    1,
		durable:    true,
		mix:        mixOf(map[choice]float64{chInsert: .80, chDelete: .10, chGet: .07, chBatch: .01, chCount: .01, chSelect: .01}),
		countSide:  0.02,
		selectSide: 0.01,
		setups:     25,
		dopts:      spatialdb.DurableOptions{AutoFlush: 4096, CompactAfter: 4},
	},
}

// pick maps x in [0, 1) to a choice by the mix's shares. Rounding can
// leave x past the last share; it then goes to the last choice with a
// share, never to one the workload does not make.
func (s *spec) pick(x float64) choice {
	last := choice(0)
	for ch, w := range s.mix {
		if w == 0 {
			continue
		}
		if x < w {
			return choice(ch)
		}
		x -= w
		last = choice(ch)
	}
	return last
}

func mixOf(m map[choice]float64) (mix [nChoices]float64) {
	for c, w := range m {
		mix[c] = w
	}
	return mix
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
