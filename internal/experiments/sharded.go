package experiments

import (
	"fmt"
	"math/rand"

	"pwsr/internal/core"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// ShardedGrid is a low-contention workload: items dealt into disjoint
// single-conjunct groups and an admissible operation stream per group.
// Low contention here means conflict edges stay local to a conjunct (by
// construction they always do) and every conjunct carries comparable
// load. It is the shared workload of the concurrent monitor stress
// tests.
type ShardedGrid struct {
	// Partition is the conjunct partition, one data set per group.
	Partition []state.ItemSet
	// Groups holds one admissible stream per conjunct, over the
	// conjunct's own transaction ids, for concurrent-observer
	// instruments (group streams touch disjoint items, so any
	// interleaving of whole groups admits cleanly).
	Groups [][]txn.Op
}

// NewShardedGrid builds the grid: conj conjuncts over conj·itemsPer
// items, opsPer admitted operations per conjunct.
func NewShardedGrid(conj, itemsPer, opsPer int, seed int64) *ShardedGrid {
	g := &ShardedGrid{}
	for e := 0; e < conj; e++ {
		rng := rand.New(rand.NewSource(seed + int64(e)))
		d := state.NewItemSet()
		items := make([]string, itemsPer)
		for i := range items {
			items[i] = fmt.Sprintf("c%d_x%d", e, i)
			d.Add(items[i])
		}
		g.Partition = append(g.Partition, d)
		// Filter a random stream through a private certifier so the
		// combined feed stays violation-free (groups are disjoint, so
		// admissibility is per-group).
		m := core.NewMonitor([]state.ItemSet{d})
		var ops []txn.Op
		for attempts := 0; len(ops) < opsPer && attempts < 40*opsPer; attempts++ {
			id := 1000*e + 1 + rng.Intn(32)
			o := txn.R(id, items[rng.Intn(itemsPer)], 0)
			if rng.Intn(2) == 0 {
				o = txn.W(id, o.Entity, 1)
			}
			if !m.Admissible(o) {
				continue
			}
			m.Observe(o)
			ops = append(ops, o)
		}
		g.Groups = append(g.Groups, ops)
	}
	return g
}
