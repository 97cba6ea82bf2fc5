package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/experiments"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// sameViolation asserts two violations agree on nil-ness, conjunct,
// flagged operation, and witness cycle.
func sameViolation(t *testing.T, trial int, got, want *core.Violation) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("trial %d: sharded %v vs monitor %v", trial, got, want)
	}
	if got == nil {
		return
	}
	if got.Conjunct != want.Conjunct || got.Op != want.Op {
		t.Fatalf("trial %d: sharded flagged C%d %v, monitor C%d %v",
			trial, got.Conjunct, got.Op, want.Conjunct, want.Op)
	}
	if !slices.Equal(got.Cycle, want.Cycle) {
		t.Fatalf("trial %d: sharded cycle %v vs monitor cycle %v", trial, got.Cycle, want.Cycle)
	}
}

// sameEdges asserts every conjunct's conflict edges agree.
func sameEdges(t *testing.T, trial, conjuncts int, sm *core.ShardedMonitor, m *core.Monitor) {
	t.Helper()
	for e := 0; e < conjuncts; e++ {
		if got, want := sm.ConflictEdges(e), m.ConflictEdges(e); !slices.Equal(got, want) {
			t.Fatalf("trial %d: conjunct %d edges %v (sharded) vs %v (monitor)", trial, e, got, want)
		}
	}
}

// lifecycleTape records a LifecycleSink stream as text, one line per
// record.
type lifecycleTape struct{ lines []string }

func (r *lifecycleTape) LogObserve(o txn.Op) { r.lines = append(r.lines, "observe "+o.String()) }
func (r *lifecycleTape) LogCommit(id int)    { r.lines = append(r.lines, fmt.Sprint("commit ", id)) }
func (r *lifecycleTape) LogRetract(id int)   { r.lines = append(r.lines, fmt.Sprint("retract ", id)) }
func (r *lifecycleTape) LogCompact(reclaimed []int, st core.CompactStats, ops int) {
	r.lines = append(r.lines, fmt.Sprintf("compact %v %+v ops=%d", reclaimed, st, ops))
}

// sameLifecycle asserts the sharded monitor and the single monitor
// agree on everything the lifecycle exposes: surviving op count,
// resident and in-flight transaction ids, lifecycle counters,
// compaction watermark, and the emitted sink streams record for record.
func sameLifecycle(t *testing.T, trial int, sm *core.ShardedMonitor, m *core.Monitor, smTape, mTape *lifecycleTape) {
	t.Helper()
	if got, want := sm.Ops(), m.Ops(); got != want {
		t.Fatalf("trial %d shards=%d: ops %d vs monitor %d", trial, sm.Shards(), got, want)
	}
	if got, want := sm.LiveTxnIDs(), m.LiveTxnIDs(); !slices.Equal(got, want) {
		t.Fatalf("trial %d shards=%d: live ids %v vs monitor %v", trial, sm.Shards(), got, want)
	}
	if got, want := sm.InFlightTxnIDs(), m.InFlightTxnIDs(); !slices.Equal(got, want) {
		t.Fatalf("trial %d shards=%d: in-flight ids %v vs monitor %v", trial, sm.Shards(), got, want)
	}
	if got, want := sm.LiveTxns(), m.LiveTxns(); got != want {
		t.Fatalf("trial %d shards=%d: %d live vs monitor %d", trial, sm.Shards(), got, want)
	}
	if got, want := sm.CompactStats(), m.CompactStats(); got != want {
		t.Fatalf("trial %d shards=%d: stats %+v vs monitor %+v", trial, sm.Shards(), got, want)
	}
	if got, want := sm.CompactWatermark(), m.CompactWatermark(); got != want {
		t.Fatalf("trial %d shards=%d: compaction watermark %d vs monitor %d", trial, sm.Shards(), got, want)
	}
	if !slices.Equal(smTape.lines, mTape.lines) {
		for i := range min(len(smTape.lines), len(mTape.lines)) {
			if smTape.lines[i] != mTape.lines[i] {
				t.Fatalf("trial %d shards=%d: sink record %d is %q, monitor's %q", trial, sm.Shards(), i, smTape.lines[i], mTape.lines[i])
			}
		}
		t.Fatalf("trial %d shards=%d: %d sink records vs monitor's %d (sharded tail %q, monitor tail %q)", trial, sm.Shards(),
			len(smTape.lines), len(mTape.lines), smTape.lines[max(0, len(smTape.lines)-2):], mTape.lines[max(0, len(mTape.lines)-2):])
	}
}

// TestShardedMonitorDifferential is the sharding refactor's safety
// net: fed from one goroutine, a ShardedMonitor at every shard count
// 1..8 must agree with Monitor operation for operation across random
// Observe/Retract interleavings — verdicts, flagged operations,
// witness cycles, Admissible probes, op counts, per-conjunct conflict
// edges, resident and in-flight transaction ids, and the emitted
// LifecycleSink stream record for record.
func TestShardedMonitorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	violations := 0
	for trial := 0; trial < 200; trial++ {
		nItems := 1 + rng.Intn(6)
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		s := randomSchedule(rng, 10+rng.Intn(60), 2+rng.Intn(5), items)
		partition := randomPartition(rng, items, trial%3 == 0)
		shards := 1 + trial%8

		mon := core.NewMonitor(partition)
		sm := core.NewShardedMonitor(partition, shards)
		monTape, smTape := &lifecycleTape{}, &lifecycleTape{}
		mon.SetSink(monTape)
		sm.SetSink(smTape)
		for _, o := range s.Ops() {
			// Probe a few candidates before admitting: Admissible must
			// agree and must not perturb either monitor.
			for p := 0; p < 2; p++ {
				probe := txn.R(1+rng.Intn(6), items[rng.Intn(nItems)], 0)
				if rng.Intn(2) == 0 {
					probe = txn.W(probe.Txn, probe.Entity, 0)
				}
				if got, want := sm.Admissible(probe), mon.Admissible(probe); got != want {
					t.Fatalf("trial %d: Admissible(%v) = %v (sharded) vs %v (monitor)", trial, probe, got, want)
				}
			}
			vGot := sm.Observe(o)
			vWant := mon.Observe(o)
			sameViolation(t, trial, vGot, vWant)
			sameLifecycle(t, trial, sm, mon, smTape, monTape)
			if vWant != nil {
				violations++
				break
			}
			// Occasionally retract a transaction — one that has run, one
			// already rolled back, or one never seen — then compare the
			// repaired states.
			if rng.Intn(8) == 0 {
				victim := 1 + rng.Intn(6)
				sm.Retract(victim)
				mon.Retract(victim)
				sameLifecycle(t, trial, sm, mon, smTape, monTape)
				sameEdges(t, trial, len(partition), sm, mon)
			}
		}
		if sm.PWSR() != mon.PWSR() {
			t.Fatalf("trial %d: PWSR %v vs %v", trial, sm.PWSR(), mon.PWSR())
		}
		if sm.PWSR() {
			sameEdges(t, trial, len(partition), sm, mon)
		} else {
			// Sticky: both keep returning the first violation, and
			// nothing is admissible any more.
			o := s.Ops()[0]
			sameViolation(t, trial, sm.Observe(o), mon.Observe(o))
			if sm.Admissible(o) {
				t.Fatalf("trial %d: violated sharded monitor admitted %v", trial, o)
			}
		}
	}
	if violations < 20 {
		t.Fatalf("only %d violating trials; differential coverage too thin", violations)
	}
}

// TestShardedMonitorBatchDifferential forces the epoch/fence pipeline
// on (tiny threshold and epochs) and asserts ObserveAll matches the
// sequential Monitor verdict on random schedules: same outcome, same
// flagged operation and conjunct, same witness cycle.
func TestShardedMonitorBatchDifferential(t *testing.T) {
	defer core.SetShardedBatchThreshold(core.SetShardedBatchThreshold(8))
	defer core.SetShardedEpochSize(core.SetShardedEpochSize(16))
	rng := rand.New(rand.NewSource(72))
	violations := 0
	for trial := 0; trial < 200; trial++ {
		nItems := 2 + rng.Intn(8)
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		s := randomSchedule(rng, 20+rng.Intn(120), 2+rng.Intn(6), items)
		partition := randomPartition(rng, items, trial%3 == 0)
		shards := 1 + trial%8

		mon := core.NewMonitor(partition)
		sm := core.NewShardedMonitor(partition, shards)
		var vWant *core.Violation
		for _, o := range s.Ops() {
			if vWant = mon.Observe(o); vWant != nil {
				break
			}
		}
		vGot := sm.ObserveAll(s)
		sameViolation(t, trial, vGot, vWant)
		if sm.Ops() != mon.Ops() {
			t.Fatalf("trial %d: ops %d (pipelined) vs %d (sequential)", trial, sm.Ops(), mon.Ops())
		}
		if vWant != nil {
			violations++
			continue
		}
		sameEdges(t, trial, len(partition), sm, mon)
	}
	if violations < 20 {
		t.Fatalf("only %d violating trials; differential coverage too thin", violations)
	}
}

// TestShardedMonitorConcurrent is the -race stress test: concurrent
// observers on disjoint shards, with Admissible probes and
// Retract/re-observe churn mixed in. Because each item group is
// touched by exactly one goroutine, the final per-conjunct conflict
// edges are deterministic and must equal a sequential Monitor fed the
// same per-group call sequences. The workload is the shared PERF6
// low-contention grid (experiments.NewShardedGrid).
func TestShardedMonitorConcurrent(t *testing.T) {
	const workers, itemsPer, opsPer = 8, 6, 400
	grid := experiments.NewShardedGrid(workers, itemsPer, opsPer, 81)
	partition, streams := grid.Partition, grid.Groups
	for _, shards := range []int{2, 8} {
		sm := core.NewShardedMonitor(partition, shards)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000 + w)))
				for i, o := range streams[w] {
					// The retract/replay churn below reorders per-item
					// histories, so later stream ops can become
					// inadmissible; gate them like a certifying
					// scheduler would. The group's state evolves only
					// under this goroutine, so the probe verdict is
					// deterministic and the sequential reference can
					// mirror the skips exactly.
					if sm.Admissible(o) {
						if v := sm.Observe(o); v != nil {
							t.Errorf("worker %d: violation on certified admission: %v", w, v)
							return
						}
					}
					// Occasionally roll our own transaction back out and
					// replay it; the monitor must repair under concurrency.
					if i > 0 && rng.Intn(64) == 0 {
						victim := streams[w][rng.Intn(i)].Txn
						sm.Retract(victim)
						for _, ro := range streams[w][:i+1] {
							if ro.Txn == victim {
								if v := sm.Observe(ro); v != nil {
									t.Errorf("worker %d: replay violation %v", w, v)
									return
								}
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if !sm.PWSR() {
			t.Fatalf("shards=%d: concurrent feed violated: %v", shards, sm.Violation())
		}
		// Sequential reference: same per-group call sequences, one
		// group after another (retracted-and-replayed transactions end
		// up in the same per-item orders, so edges must agree).
		mon := core.NewMonitor(partition)
		for w := 0; w < workers; w++ {
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i, o := range streams[w] {
				if mon.Admissible(o) {
					if v := mon.Observe(o); v != nil {
						t.Fatalf("reference violation %v", v)
					}
				}
				if i > 0 && rng.Intn(64) == 0 {
					victim := streams[w][rng.Intn(i)].Txn
					mon.Retract(victim)
					for _, ro := range streams[w][:i+1] {
						if ro.Txn == victim {
							mon.Observe(ro)
						}
					}
				}
			}
		}
		sameEdges(t, shards, len(partition), sm, mon)
		total := 0
		for _, st := range sm.ShardStats() {
			total += int(st.Observes)
		}
		if total == 0 {
			t.Fatalf("shards=%d: no observes recorded in shard stats", shards)
		}
	}
}

// TestShardedInFlightNeverReportsCommitted races Commit and the Compact
// passes it triggers against InFlightTxnIDs: an id whose Commit had
// returned before the call began must never be reported in flight,
// reclaimed in the meantime or not. (The list was once assembled from a
// snapshot of the live table taken before, and commit marks read after,
// a pass could delete both — so Drain was handed finished work.)
func TestShardedInFlightNeverReportsCommitted(t *testing.T) {
	items := []string{"a", "b", "c", "d"}
	partition := make([]state.ItemSet, len(items))
	for e, it := range items {
		partition[e] = state.NewItemSet(it)
	}
	for _, shards := range []int{2, 4} {
		sm := core.NewShardedMonitor(partition, shards)
		sm.SetAutoCompact(4)
		var committed atomic.Int64 // every id at or below it has been committed
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					done := committed.Load()
					for _, id := range sm.InFlightTxnIDs() {
						if int64(id) <= done {
							t.Errorf("shards=%d: T%d reported in flight after its Commit returned", shards, id)
							return
						}
					}
				}
			}()
		}
		for id := 1; id <= 8000 && !t.Failed(); id++ {
			if v := sm.Observe(txn.W(id, items[id%len(items)], 0)); v != nil {
				t.Fatalf("shards=%d: %v", shards, v)
			}
			sm.Commit(id)
			committed.Store(int64(id))
		}
		close(stop)
		readers.Wait()
	}
}
