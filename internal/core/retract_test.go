package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// edgesEqual compares two sorted edge lists.
func edgesEqual(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstFreshReplay asserts the retracted monitor is
// observationally identical to a fresh monitor fed only the surviving
// operations: same operation count, same conflict edges per conjunct,
// and the same admissibility verdict on a batch of probe operations.
func checkAgainstFreshReplay(t *testing.T, trial int, m *core.Monitor, partition []state.ItemSet, survivors []txn.Op, probes []txn.Op) {
	t.Helper()
	fresh := core.NewMonitor(partition)
	for _, o := range survivors {
		if v := fresh.Observe(o); v != nil {
			t.Fatalf("trial %d: surviving schedule not violation-free: %v", trial, v)
		}
	}
	if m.Ops() != fresh.Ops() {
		t.Fatalf("trial %d: retracted monitor counts %d ops, fresh replay %d", trial, m.Ops(), fresh.Ops())
	}
	for e := range partition {
		got, want := m.ConflictEdges(e), fresh.ConflictEdges(e)
		if !edgesEqual(got, want) {
			t.Fatalf("trial %d: conjunct %d edges after retraction %v, fresh replay %v", trial, e, got, want)
		}
	}
	for _, p := range probes {
		if m.Admissible(p) != fresh.Admissible(p) {
			t.Fatalf("trial %d: Admissible(%s) = %v after retraction, fresh replay says %v",
				trial, p, m.Admissible(p), fresh.Admissible(p))
		}
	}
}

// TestRetractDifferential drives random Observe/Retract interleavings
// and asserts, after every retraction, that the incrementally repaired
// Monitor matches both a fresh Monitor replay of the surviving
// operations and the ReferenceMonitor's rebuild-from-scratch path —
// verdicts, witness edges, operation counts, and admissibility.
func TestRetractDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	retractions, violationsAfter := 0, 0
	for trial := 0; trial < 250; trial++ {
		nItems := 1 + rng.Intn(6)
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		txns := 2 + rng.Intn(5)
		partition := randomPartition(rng, items, trial%3 == 0)

		m := core.NewMonitor(partition)
		ref := core.NewReferenceMonitor(partition)
		var survivors []txn.Op

		nops := 15 + rng.Intn(60)
		for i := 0; i < nops; i++ {
			if len(survivors) > 0 && rng.Intn(8) == 0 {
				// Retract a random live transaction (or, sometimes, one
				// the monitor has never seen — must be a no-op).
				victim := 1 + rng.Intn(txns+2)
				m.Retract(victim)
				ref.Retract(victim)
				kept := survivors[:0]
				for _, o := range survivors {
					if o.Txn != victim {
						kept = append(kept, o)
					}
				}
				survivors = kept
				retractions++

				probes := make([]txn.Op, 0, 12)
				for j := 0; j < 12; j++ {
					id := 1 + rng.Intn(txns)
					entity := items[rng.Intn(len(items))]
					if rng.Intn(2) == 0 {
						probes = append(probes, txn.R(id, entity, 0))
					} else {
						probes = append(probes, txn.W(id, entity, 0))
					}
				}
				checkAgainstFreshReplay(t, trial, m, partition, survivors, probes)
				// The reference's rebuild path must likewise equal a
				// fresh reference replay of the survivors. (Monitor and
				// ReferenceMonitor edge sets differ by design — the
				// frontier draws a reachability-equivalent subset of
				// the reference's all-predecessors edges — so each is
				// compared against its own replay.)
				freshRef := core.NewReferenceMonitor(partition)
				for _, o := range survivors {
					freshRef.Observe(o)
				}
				for e := range partition {
					if !edgesEqual(ref.ConflictEdges(e), freshRef.ConflictEdges(e)) {
						t.Fatalf("trial %d: reference rebuild and fresh reference replay disagree on conjunct %d", trial, e)
					}
				}
				continue
			}

			id := 1 + rng.Intn(txns)
			entity := items[rng.Intn(len(items))]
			var o txn.Op
			if rng.Intn(2) == 0 {
				o = txn.R(id, entity, int64(rng.Intn(8)))
			} else {
				o = txn.W(id, entity, int64(rng.Intn(8)))
			}
			v := m.Observe(o)
			vr := ref.Observe(o)
			if (v == nil) != (vr == nil) {
				t.Fatalf("trial %d: monitor %v vs reference %v at %s", trial, v, vr, o)
			}
			if v != nil {
				// The violation verdict must match a fresh replay of
				// survivors + o: same flagged op and conjunct.
				fresh := core.NewMonitor(partition)
				for _, s := range survivors {
					if fv := fresh.Observe(s); fv != nil {
						t.Fatalf("trial %d: survivors not violation-free", trial)
					}
				}
				fv := fresh.Observe(o)
				if fv == nil {
					t.Fatalf("trial %d: retracted monitor flagged %s, fresh replay admits it", trial, o)
				}
				if fv.Conjunct != v.Conjunct {
					t.Fatalf("trial %d: flagged conjunct %d, fresh replay flags %d", trial, v.Conjunct, fv.Conjunct)
				}
				violationsAfter++
				break
			}
			survivors = append(survivors, o)
		}
	}
	if retractions == 0 || violationsAfter == 0 {
		t.Fatalf("vacuous: %d retractions, %d post-retraction violations", retractions, violationsAfter)
	}
}

// TestRetractUnknownTxnIsNoop retracts ids the monitor never saw.
func TestRetractUnknownTxnIsNoop(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a", "b")}
	m := core.NewMonitor(partition)
	m.Observe(txn.W(1, "a", 1))
	m.Observe(txn.R(2, "a", 1))
	before := m.ConflictEdges(0)
	m.Retract(99)
	if m.Ops() != 2 {
		t.Fatalf("Ops = %d after no-op retraction", m.Ops())
	}
	if !edgesEqual(before, m.ConflictEdges(0)) {
		t.Fatal("no-op retraction changed the edge set")
	}
}

// TestRetractReopensAdmissibility is the scheduler's use case in
// miniature: an operation that would close a cycle becomes admissible
// once the victim is retracted, and the retracted transaction's own
// fresh restart operations are always admissible.
func TestRetractReopensAdmissibility(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a", "b")}
	m := core.NewMonitor(partition)
	// T1 -> T2 via a, T2 -> T1 would close the cycle via b.
	for _, o := range []txn.Op{txn.W(1, "a", 1), txn.R(2, "a", 1), txn.W(2, "b", 2)} {
		if v := m.Observe(o); v != nil {
			t.Fatal(v)
		}
	}
	closing := txn.R(1, "b", 2)
	if m.Admissible(closing) {
		t.Fatal("cycle-closing read admitted")
	}
	m.Retract(2)
	if !m.Admissible(closing) {
		t.Fatal("read still blocked after the victim was retracted")
	}
	// The victim restarts: its first operations draw edges into a node
	// with no outgoing edges, so they are always admissible.
	if !m.Admissible(txn.W(2, "b", 3)) || !m.Admissible(txn.R(2, "a", 1)) {
		t.Fatal("restarted victim's fresh operations not admissible")
	}
}

// TestRetractBridgesEdges checks the bridge case directly: retracting a
// middle writer must reconnect the previous writer to later readers
// exactly as a fresh replay would.
func TestRetractBridgesEdges(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a")}
	m := core.NewMonitor(partition)
	// w1(a) w2(a) r3(a): edges 1->2, 2->3.
	for _, o := range []txn.Op{txn.W(1, "a", 1), txn.W(2, "a", 2), txn.R(3, "a", 2)} {
		if v := m.Observe(o); v != nil {
			t.Fatal(v)
		}
	}
	m.Retract(2)
	want := [][2]int{{1, 3}}
	if got := m.ConflictEdges(0); !edgesEqual(got, want) {
		t.Fatalf("edges after bridging retraction = %v, want %v", got, want)
	}
}

// TestRetractAfterViolationPanics pins the documented contract.
func TestRetractAfterViolationPanics(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a", "b")}
	m := core.NewMonitor(partition)
	for _, o := range []txn.Op{
		txn.W(1, "a", 1), txn.R(2, "a", 1), txn.W(2, "b", 2), txn.R(1, "b", 2),
	} {
		m.Observe(o)
	}
	if m.PWSR() {
		t.Fatal("fixture schedule should violate")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Retract on a violated monitor did not panic")
		}
	}()
	m.Retract(1)
}

// TestRetractUnderCertifiedExecution closes the loop with the engine:
// run a certified schedule, replay it into a monitor, retract one of
// its transactions, and check the monitor equals a fresh replay of the
// surviving prefix. (The gate's own monitor commits transactions as
// they finish — retracting a committed transaction is a lifecycle
// contract violation — so the retraction runs on a replay monitor
// holding the same certified schedule with every transaction still
// live.)
func TestRetractUnderCertifiedExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	checked := 0
	for trial := 0; trial < 80 && checked < 15; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 3, Programs: 3, Style: gen.StyleFixed, Seed: rng.Int63(),
		})
		gate := sched.NewCertify(w.DataSets, sched.NewRandom(rng.Int63()))
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   gate,
			DataSets: w.DataSets,
		})
		if err != nil {
			continue // stalls are exercised elsewhere
		}
		mon := core.NewMonitor(w.DataSets)
		if v := mon.ObserveAll(res.Schedule); v != nil {
			t.Fatalf("trial %d: certified schedule violated on replay: %v", trial, v)
		}
		victim := res.Schedule.TxnIDs()[rng.Intn(len(res.Schedule.TxnIDs()))]
		mon.Retract(victim)
		var survivors []txn.Op
		for _, o := range res.Schedule.Ops() {
			if o.Txn != victim {
				survivors = append(survivors, o)
			}
		}
		checkAgainstFreshReplay(t, trial, mon, w.DataSets, survivors, res.Schedule.Ops())
		checked++
	}
	if checked == 0 {
		t.Fatal("vacuous: every trial stalled")
	}
}
