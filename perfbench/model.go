package main

import (
	"sync/atomic"

	"popana/internal/dist"
	"popana/internal/geom"
	"popana/internal/xrand"
)

// distinctPoints draws n distinct points from src. They become the
// locations of record ids 0..n-1, which never move: the location of
// id i is the same for the whole run, so a reader can check any record
// the table returns without synchronizing with the writers.
func distinctPoints(src dist.PointSource, n int) []geom.Point {
	seen := make(map[geom.Point]struct{}, n)
	locs := make([]geom.Point, 0, n)
	for len(locs) < n {
		p := src.Next()
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		locs = append(locs, p)
	}
	return locs
}

// pointSource returns the workload's location generator.
func pointSource(clustered bool, rng *xrand.Rand) dist.PointSource {
	if clustered {
		return dist.NewClusters(geom.UnitSquare, clusterCount, clusterSigma, rng)
	}
	return dist.NewUniform(geom.UnitSquare, rng)
}

// Clustered data: enough clusters that shard load and tree depth vary
// little from seed to seed, tight enough that the trees under each
// cluster run several levels deeper than uniform data of the same size.
const (
	clusterCount = 64
	clusterSigma = 0.01
)

// slotModel is the benchmark's id→location model for the fixed-size
// workloads. The table always holds exactly the ids in slots; a write
// replaces one slot's id with a dead one. Client c alone writes the
// slots with index ≡ c (mod clients) and owns its own dead-id queue,
// so writers never contend in the model; readers load slots
// atomically and accept either answer when the slot changed under
// them.
type slotModel struct {
	slots []atomic.Uint64
	dead  [][]uint64 // per client, FIFO: oldest dead id first
}

// newSlotModel puts ids 0..n-1 in the slots and deals ids n..total-1
// out to the clients' dead queues.
func newSlotModel(n, total, clients int) *slotModel {
	m := &slotModel{slots: make([]atomic.Uint64, n), dead: make([][]uint64, clients)}
	for i := range m.slots {
		m.slots[i].Store(uint64(i))
	}
	for id := n; id < total; id++ {
		c := id % clients
		m.dead[c] = append(m.dead[c], uint64(id))
	}
	return m
}

// live returns the ids currently in the slots.
func (m *slotModel) live() []uint64 {
	ids := make([]uint64, len(m.slots))
	for i := range m.slots {
		ids[i] = m.slots[i].Load()
	}
	return ids
}

// deadIDs returns every id not in the slots.
func (m *slotModel) deadIDs() []uint64 {
	var ids []uint64
	for _, q := range m.dead {
		ids = append(ids, q...)
	}
	return ids
}

// streamModel is the single writer's model for the ingest workload:
// live ids in no particular order, and which ids were deleted.
type streamModel struct {
	live    []uint64
	deleted []uint64
}
