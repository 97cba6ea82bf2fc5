package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// admitSequenceRef is what AdmitSequence must be equivalent to,
// expressed through the public per-op entry points on an independent
// certifier: probe each operation, observe it on success, and on the
// first denial retract the observed prefix. AdmitSequence itself does
// not probe, since a fresh sequence is never denied; the test fails if
// this reference ever denies one.
func admitSequenceRef(m *core.Monitor, ops []txn.Op) (bool, *core.Violation) {
	if v := m.Violation(); v != nil {
		return false, v
	}
	for i, o := range ops {
		if !m.Admissible(o) {
			if i > 0 {
				m.Retract(ops[0].Txn)
			}
			return false, nil
		}
		if v := m.Observe(o); v != nil {
			return false, v
		}
	}
	return true, nil
}

// TestAdmitSequenceDifferential interleaves whole-transaction
// sequences with per-operation traffic, commits, retractions and
// compaction passes — the mixed regime a shared gate produces — and
// asserts Monitor.AdmitSequence and ShardedMonitor.AdmitSequence at
// shard counts 1..8 agree with the per-op reference loop on every
// certifier: same verdicts, same violations, and after every step the
// same surviving op counts, resident and in-flight transaction sets,
// lifecycle counters, compaction watermark, per-conjunct conflict edges
// and — record for record — the same LifecycleSink stream as the single
// Monitor. Half the trials spread the items over 8..10 conjuncts, so
// the shard counts are real and a transaction's footprint is usually a
// strict subset of the shards (what Retract and Commit now fan out to).
// Ids are handed out in ascending order of first use, like the engines',
// which makes Monitor's first-seen reclamation order the ascending one
// the sharded level emits. Sequences of fresh transactions are never
// denied (the commit-order serial-equivalence argument in the
// AdmitSequence doc), so the interleaved per-op traffic is what
// supplies violations; once one trips, the sequence path must surface
// the sticky verdict on every certifier. The test asserts every regime
// actually occurred, and that the passes reclaimed enough for fresh
// sequences to be handed recycled node slots, conjunct lists and
// transaction-table entries often (a Spares or FreeEntries count that
// falls across an admission).
func TestAdmitSequenceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	accepts, stickyDenials, reclaims, partialRetracts, readmits, reretracts := 0, 0, 0, 0, 0, 0
	reusedSlots, reusedShardSlots, reusedEntries := 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		nItems := 2 + rng.Intn(6)
		wide := trial%2 == 1
		if wide {
			nItems = 8 + rng.Intn(6)
		}
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		partition := randomPartition(rng, items, trial%3 == 0)
		if wide {
			partition = make([]state.ItemSet, 8+rng.Intn(3))
			for e := range partition {
				partition[e] = state.NewItemSet()
			}
			for _, it := range items {
				partition[rng.Intn(len(partition))].Add(it)
				if trial%3 == 0 && rng.Intn(3) == 0 {
					partition[rng.Intn(len(partition))].Add(it)
				}
			}
		}
		autoEvery := []int{0, 2, 5}[trial%3]

		ref := core.NewMonitor(partition)
		ref.SetAutoCompact(autoEvery)
		mon := core.NewMonitor(partition)
		mon.SetAutoCompact(autoEvery)
		monTape := &lifecycleTape{}
		mon.SetSink(monTape)
		var sharded []*core.ShardedMonitor
		var tapes []*lifecycleTape
		for shards := 1; shards <= 8; shards++ {
			sm := core.NewShardedMonitor(partition, shards)
			sm.SetAutoCompact(autoEvery)
			tape := &lifecycleTape{}
			sm.SetSink(tape)
			sharded, tapes = append(sharded, sm), append(tapes, tape)
		}
		randOp := func(id int) txn.Op {
			entity := items[rng.Intn(len(items))]
			if rng.Intn(2) == 0 {
				return txn.R(id, entity, int64(rng.Intn(8)))
			}
			return txn.W(id, entity, int64(rng.Intn(8)))
		}
		// footprintIsPartial reports whether, on some sharded monitor, the
		// items span at least one but not every shard.
		footprintIsPartial := func(touched []string) bool {
			for _, sm := range sharded {
				seen := make(map[int]bool)
				for e, d := range partition {
					for _, it := range touched {
						if d.Contains(it) {
							// Shard s owns conjuncts [s*l/n, (s+1)*l/n).
							for s := 0; s < sm.Shards(); s++ {
								if lo, hi := s*len(partition)/sm.Shards(), (s+1)*len(partition)/sm.Shards(); lo <= e && e < hi {
									seen[s] = true
								}
							}
						}
					}
				}
				if len(seen) > 0 && len(seen) < sm.Shards() {
					return true
				}
			}
			return false
		}

		// Interactive transactions fed per-op and batch transactions fed
		// as whole sequences, ids ascending in order of first use; live
		// holds the uncommitted ones with the items they touched. The
		// loop keeps running for a few steps after a violation so the
		// sequence path meets the sticky verdict too.
		nextID := 1
		interactive := make([]int, 4)
		live := make(map[int][]string)
		var retracted []int // batch ids rolled back, free to be re-admitted
		pickLive := func() int {
			ids := make([]int, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				return 0
			}
			slices.Sort(ids)
			return ids[rng.Intn(len(ids))]
		}
		finish := func(id int) {
			delete(live, id)
			for k, x := range interactive {
				if x == id {
					interactive[k] = 0
				}
			}
		}
		violated := false
		steps := 16 + rng.Intn(28)
		for step := 0; step < steps; step++ {
			switch r := rng.Intn(100); {
			case r < 35:
				// One per-op observation of an interactive transaction:
				// this is the traffic that can close cycles.
				k := rng.Intn(len(interactive))
				if interactive[k] == 0 {
					interactive[k] = nextID
					nextID++
				}
				o := randOp(interactive[k])
				live[o.Txn] = append(live[o.Txn], o.Entity)
				wantV := ref.Observe(o)
				sameViolation(t, trial, mon.Observe(o), wantV)
				for _, sm := range sharded {
					sameViolation(t, trial, sm.Observe(o), wantV)
				}
				violated = wantV != nil
			case r < 70:
				id := nextID
				if len(retracted) > 0 && rng.Intn(2) == 0 {
					id, retracted = retracted[0], retracted[1:]
					readmits++
				} else {
					nextID++
				}
				seq := make([]txn.Op, 1+rng.Intn(5))
				for i := range seq {
					seq[i] = randOp(id)
				}
				wantOK, wantV := admitSequenceRef(ref, seq)
				spares := mon.Spares()
				gotOK, gotV := mon.AdmitSequence(seq)
				if mon.Spares() < spares {
					reusedSlots++
				}
				if gotOK != wantOK {
					t.Fatalf("trial %d T%d: Monitor.AdmitSequence %v, reference %v", trial, id, gotOK, wantOK)
				}
				sameViolation(t, trial, gotV, wantV)
				for _, sm := range sharded {
					spares, free := sm.Spares(), sm.FreeEntries()
					smOK, smV := sm.AdmitSequence(seq)
					if sm.Shards() > 1 && sm.Spares() < spares {
						reusedShardSlots++
					}
					if sm.FreeEntries() < free {
						reusedEntries++
					}
					if smOK != wantOK {
						t.Fatalf("trial %d T%d shards=%d: sharded %v, reference %v", trial, id, sm.Shards(), smOK, wantOK)
					}
					sameViolation(t, trial, smV, wantV)
				}
				switch {
				case wantOK:
					accepts++
					for _, o := range seq {
						live[id] = append(live[id], o.Entity)
					}
					if rng.Intn(3) == 0 {
						finish(id)
						ref.Commit(id)
						mon.Commit(id)
						for _, sm := range sharded {
							sm.Commit(id)
						}
					}
				case wantV != nil:
					stickyDenials++
					violated = true
				default:
					t.Fatalf("trial %d T%d: fresh sequence denied without a violation", trial, id)
				}
			case r < 80:
				if id := pickLive(); id != 0 {
					finish(id)
					ref.Commit(id)
					mon.Commit(id)
					for _, sm := range sharded {
						sm.Commit(id)
					}
				}
			case r < 90:
				// Retraction is a contract violation on a violated monitor.
				// One time in four it hits a transaction already rolled
				// back, which the monitors still know and report again.
				id := pickLive()
				if len(retracted) > 0 && rng.Intn(4) == 0 {
					id = retracted[rng.Intn(len(retracted))]
					reretracts++
				}
				if id != 0 && !violated {
					if footprintIsPartial(live[id]) {
						partialRetracts++
					}
					if !slices.Contains(interactive, id) && !slices.Contains(retracted, id) {
						retracted = append(retracted, id)
					}
					delete(live, id)
					ref.Retract(id)
					mon.Retract(id)
					for _, sm := range sharded {
						sm.Retract(id)
					}
				}
			default:
				want := ref.Compact()
				if want > 0 {
					reclaims++
				}
				if got := mon.Compact(); got != want {
					t.Fatalf("trial %d: Monitor.Compact reclaimed %d, reference %d", trial, got, want)
				}
				for _, sm := range sharded {
					if got := sm.Compact(); got != want {
						t.Fatalf("trial %d shards=%d: Compact reclaimed %d, reference %d", trial, sm.Shards(), got, want)
					}
				}
			}
			if mon.Ops() != ref.Ops() {
				t.Fatalf("trial %d: Monitor ops %d vs reference %d", trial, mon.Ops(), ref.Ops())
			}
			for i, sm := range sharded {
				sameLifecycle(t, trial, sm, mon, tapes[i], monTape)
				if !violated {
					sameEdges(t, trial, len(partition), sm, ref)
				}
			}
		}
		if violated {
			continue
		}
		// Commit whatever is still known — live, or rolled back and never
		// re-admitted — and reclaim: no shard may keep a node of any of
		// them, emptied ones included (a commit reaches every shard the
		// transaction ever touched, not only those of its last attempt).
		known := slices.Concat(retracted, interactive)
		for id := range live {
			known = append(known, id)
		}
		slices.Sort(known)
		for _, id := range slices.Compact(known) {
			if id == 0 {
				continue // an idle interactive slot
			}
			mon.Commit(id)
			for _, sm := range sharded {
				sm.Commit(id)
			}
		}
		mon.Compact()
		for i, sm := range sharded {
			sm.Compact()
			sameLifecycle(t, trial, sm, mon, tapes[i], monTape)
			if live, held := sm.LiveTxns(), sm.InternedTxns(); live != 0 || held != 0 {
				t.Fatalf("trial %d shards=%d: %d live, %d held by the shards after everything committed and compacted", trial, sm.Shards(), live, held)
			}
		}
	}
	if accepts == 0 || stickyDenials == 0 || reclaims == 0 || partialRetracts == 0 || readmits == 0 || reretracts == 0 {
		t.Fatalf("differential missed a regime: %d sequence accepts, %d sticky-verdict denials, %d reclaiming passes, %d partial-footprint retractions, %d re-admissions, %d repeated retractions",
			accepts, stickyDenials, reclaims, partialRetracts, readmits, reretracts)
	}
	t.Logf("recycled slots handed out: %d by Monitor, %d by multi-shard monitors; %d table entries", reusedSlots, reusedShardSlots, reusedEntries)
	if reusedSlots < 100 || reusedShardSlots < 100 || reusedEntries < 100 {
		t.Fatalf("recycling too thin: %d recycled slots handed out by Monitor, %d by multi-shard monitors, %d table entries", reusedSlots, reusedShardSlots, reusedEntries)
	}
}

// TestFreshSequenceNeverDenied tests the theorem that lets AdmitSequence
// skip the probe: a fresh transaction's operations, observed in order,
// are each admissible when they arrive, whatever state the certifier is
// in. Random fresh sequences — new ids, and ids of aborted tick
// transactions admitted again — are probed operation by operation with
// Admissible, then observed, on Monitor and on ShardedMonitor at 1..8
// shards, between steps of in-flight tick traffic: per-operation
// observations gated the way a certifying scheduler gates them (a
// denied requester is aborted, so the certifiers stay healthy),
// retractions, commits and compaction passes. Every probe of a fresh
// sequence must pass on every certifier. The test counts, for each
// regime, the sequences that met it — tick transactions in flight, a
// retraction, a commit, a reclaiming pass since the previous sequence,
// a re-admitted id, an edge drawn into the fresh transaction — and
// fails as vacuous unless each occurred.
func TestFreshSequenceNeverDenied(t *testing.T) {
	type certifier interface {
		Observe(txn.Op) *core.Violation
		Admissible(txn.Op) bool
		Retract(int)
		Commit(int)
		Compact() int
		SetAutoCompact(int) int
		PWSR() bool
	}
	rng := rand.New(rand.NewSource(113))
	probes := 0
	var inFlight, afterRetract, afterCommit, afterPass, readmitted, edgesInto int
	for trial := 0; trial < 120; trial++ {
		items := make([]string, 2+rng.Intn(6))
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		partition := randomPartition(rng, items, trial%3 == 0)
		if trial%2 == 1 {
			partition = make([]state.ItemSet, 8+rng.Intn(3))
			for e := range partition {
				partition[e] = state.NewItemSet()
			}
			for _, it := range items {
				partition[rng.Intn(len(partition))].Add(it)
			}
		}
		mon := core.NewMonitor(partition)
		certs := []certifier{mon}
		for shards := 1; shards <= 8; shards++ {
			certs = append(certs, core.NewShardedMonitor(partition, shards))
		}
		autoEvery := []int{0, 3}[trial%2]
		for _, c := range certs {
			c.SetAutoCompact(autoEvery)
		}
		randOp := func(id int) txn.Op {
			if rng.Intn(2) == 0 {
				return txn.R(id, items[rng.Intn(len(items))], 0)
			}
			return txn.W(id, items[rng.Intn(len(items))], 1)
		}
		admissible := func(o txn.Op) bool {
			want := mon.Admissible(o)
			for _, c := range certs[1:] {
				if got := c.Admissible(o); got != want {
					t.Fatalf("trial %d: Admissible(%v) = %v on a sharded monitor, %v on Monitor", trial, o, got, want)
				}
			}
			return want
		}
		observe := func(o txn.Op) {
			for _, c := range certs {
				if v := c.Observe(o); v != nil {
					t.Fatalf("trial %d: observing admissible %v violated: %v", trial, o, v)
				}
			}
		}
		each := func(f func(certifier)) {
			for _, c := range certs {
				f(c)
			}
		}

		nextID := 1
		tick := make([]int, 3)         // in-flight tick transactions (0: idle slot)
		resident := make(map[int]bool) // tick transactions holding operations
		var aborted, uncommitted []int // aborted tick ids; sequences not yet committed
		retracted, committed, reclaimed := false, false, false
		for step := 0; step < 60; step++ {
			switch r := rng.Intn(100); {
			case r < 40:
				k := rng.Intn(len(tick))
				if tick[k] == 0 {
					tick[k] = nextID
					nextID++
				}
				o := randOp(tick[k])
				if admissible(o) {
					observe(o)
					resident[o.Txn] = true
					continue
				}
				// The scheduler aborts the denied requester.
				each(func(c certifier) { c.Retract(o.Txn) })
				delete(resident, o.Txn)
				aborted = append(aborted, o.Txn)
				tick[k] = 0
				retracted = true
			case r < 70:
				id := nextID
				readmit := len(aborted) > 0 && rng.Intn(3) == 0
				if readmit {
					id, aborted = aborted[0], aborted[1:]
					readmitted++
				} else {
					nextID++
				}
				if len(resident) > 0 {
					inFlight++
				}
				if retracted {
					afterRetract++
				}
				if committed {
					afterCommit++
				}
				if reclaimed {
					afterPass++
				}
				retracted, committed, reclaimed = false, false, false
				for n := 1 + rng.Intn(6); n > 0; n-- {
					o := randOp(id)
					probes++
					if !admissible(o) {
						t.Fatalf("trial %d: operation %v of fresh transaction T%d denied", trial, o, id)
					}
					observe(o)
				}
				for e := range partition {
					if slices.ContainsFunc(mon.ConflictEdges(e), func(edge [2]int) bool { return edge[1] == id }) {
						edgesInto++
						break
					}
				}
				uncommitted = append(uncommitted, id)
			case r < 85:
				// Commit a sequence or an in-flight tick transaction.
				if len(uncommitted) > 0 && rng.Intn(2) == 0 {
					id := uncommitted[0]
					uncommitted = uncommitted[1:]
					each(func(c certifier) { c.Commit(id) })
					committed = true
				} else if k := rng.Intn(len(tick)); tick[k] != 0 {
					id := tick[k]
					each(func(c certifier) { c.Commit(id) })
					delete(resident, id)
					tick[k] = 0
					committed = true
				}
			case r < 93:
				if k := rng.Intn(len(tick)); tick[k] != 0 {
					id := tick[k]
					each(func(c certifier) { c.Retract(id) })
					delete(resident, id)
					aborted = append(aborted, id)
					tick[k] = 0
					retracted = true
				}
			default:
				want := mon.Compact()
				for _, c := range certs[1:] {
					if got := c.Compact(); got != want {
						t.Fatalf("trial %d: a sharded monitor reclaimed %d, Monitor %d", trial, got, want)
					}
				}
				if want > 0 {
					reclaimed = true
				}
			}
		}
		for _, c := range certs {
			if !c.PWSR() {
				t.Fatalf("trial %d: a gated stream violated", trial)
			}
		}
	}
	t.Logf("%d probes; sequences with tick transactions in flight %d, after a retraction %d, after a commit %d, after a reclaiming pass %d, re-admitted %d, drawing an edge into themselves %d",
		probes, inFlight, afterRetract, afterCommit, afterPass, readmitted, edgesInto)
	if inFlight == 0 || afterRetract == 0 || afterCommit == 0 || afterPass == 0 || readmitted == 0 || edgesInto == 0 {
		t.Fatal("a regime never occurred")
	}
}

// TestAdmitSequenceConcurrent drives AdmitSequence from concurrent
// goroutines — transactions over disjoint conjuncts, so every sequence
// must be admitted — and asserts the final state matches a sequential
// feed of the same sequences, while reader goroutines poll every
// accessor of the transaction table (LiveTxns, CompactStats,
// LiveTxnIDs, InFlightTxnIDs) and automatic compaction passes run.
// Under -race this pins the lock protocol (route resolution before the
// ascending union lock round) and the table's.
func TestAdmitSequenceConcurrent(t *testing.T) {
	const conjuncts, txnsPer, opsPer = 8, 12, 6
	partition := make([]state.ItemSet, 0, conjuncts)
	type job struct {
		id  int
		seq []txn.Op
	}
	var jobs []job
	rng := rand.New(rand.NewSource(131))
	for e := 0; e < conjuncts; e++ {
		items := make([]string, 4)
		d := state.NewItemSet()
		for i := range items {
			items[i] = fmt.Sprintf("c%d_x%d", e, i)
			d.Add(items[i])
		}
		partition = append(partition, d)
		// Filter each conjunct's sequences through a private monitor so
		// every job is admissible regardless of interleaving (conjuncts
		// are disjoint, so admissibility is per-conjunct).
		filter := core.NewMonitor([]state.ItemSet{d})
		for k := 0; k < txnsPer; k++ {
			id := 100*e + k + 1
			var seq []txn.Op
			for len(seq) < opsPer {
				o := txn.R(id, items[rng.Intn(len(items))], 0)
				if rng.Intn(2) == 0 {
					o = txn.W(id, o.Entity, 1)
				}
				seq = append(seq, o)
			}
			if ok, v := filter.AdmitSequence(seq); !ok || v != nil {
				continue // skip inadmissible sequences
			}
			filter.Commit(id)
			jobs = append(jobs, job{id: id, seq: seq})
		}
	}

	for _, shards := range []int{2, 4, 8} {
		sm := core.NewShardedMonitor(partition, shards)
		sm.SetAutoCompact(16) // passes run while admissions and readers do
		// Readers of the transaction table race the admissions: whatever
		// they catch must be a consistent view — counts within the job
		// set, in-flight ids a subset of the resident ones.
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if n := sm.LiveTxns(); n < 0 || n > len(jobs) {
						t.Errorf("shards=%d: LiveTxns %d with %d jobs", shards, n, len(jobs))
						return
					}
					if st := sm.CompactStats(); st.LiveTxns < 0 || st.ReclaimedTxns > len(jobs) {
						t.Errorf("shards=%d: CompactStats %+v with %d jobs", shards, st, len(jobs))
						return
					}
					live := sm.LiveTxnIDs()
					if !slices.IsSorted(live) || len(live) > len(jobs) {
						t.Errorf("shards=%d: LiveTxnIDs %v", shards, live)
						return
					}
					if inFlight := sm.InFlightTxnIDs(); len(inFlight) > len(jobs) {
						t.Errorf("shards=%d: InFlightTxnIDs %v", shards, inFlight)
						return
					}
				}
			}()
		}
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				ok, v := sm.AdmitSequence(j.seq)
				if !ok || v != nil {
					t.Errorf("shards=%d T%d: disjoint sequence denied (ok=%v, v=%v)", shards, j.id, ok, v)
					return
				}
				sm.Commit(j.id)
			}(j)
		}
		wg.Wait()
		close(stop)
		readers.Wait()
		if t.Failed() {
			t.FailNow()
		}
		want := 0
		for _, j := range jobs {
			want += len(j.seq)
		}
		if sm.Ops() != want {
			t.Fatalf("shards=%d: %d surviving ops, want %d", shards, sm.Ops(), want)
		}
		if !sm.PWSR() {
			t.Fatalf("shards=%d: violation on disjoint sequences: %v", shards, sm.Violation())
		}
		if inFlight := sm.InFlightTxnIDs(); len(inFlight) != 0 {
			t.Fatalf("shards=%d: %v in flight after every job committed", shards, inFlight)
		}
		sm.Compact()
		if st := sm.CompactStats(); st.LiveTxns != 0 || st.ReclaimedTxns != len(jobs) {
			t.Fatalf("shards=%d: %+v after every job committed and compacted, want %d reclaimed", shards, st, len(jobs))
		}
	}
}

// TestAdmitSequenceContract pins the lifecycle panics: mixed
// transactions, sequences for a committed transaction, and sequences
// for a transaction already holding observed operations are
// programming errors on both certifiers.
func TestAdmitSequenceContract(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a", "b")}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	build := func(shards int) interface {
		AdmitSequence([]txn.Op) (bool, *core.Violation)
		Observe(txn.Op) *core.Violation
		Commit(int)
	} {
		if shards == 0 {
			return core.NewMonitor(partition)
		}
		return core.NewShardedMonitor(partition, shards)
	}
	for _, shards := range []int{0, 1, 2} {
		name := fmt.Sprintf("shards=%d", shards)
		mustPanic(name+"/mixed", func() {
			build(shards).AdmitSequence([]txn.Op{txn.R(1, "a", 0), txn.W(2, "b", 1)})
		})
		mustPanic(name+"/committed", func() {
			m := build(shards)
			m.Observe(txn.R(1, "a", 0))
			m.Commit(1)
			m.AdmitSequence([]txn.Op{txn.W(1, "b", 1)})
		})
		mustPanic(name+"/resident", func() {
			m := build(shards)
			m.Observe(txn.R(1, "a", 0))
			m.AdmitSequence([]txn.Op{txn.W(1, "b", 1)})
		})
	}
}
