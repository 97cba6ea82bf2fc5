// Package core implements the paper's contribution: the predicate-wise
// serializability (PWSR) correctness criterion and the machinery for
// deciding when PWSR schedules are strongly correct — view sets (Lemmas
// 2 and 6), transaction states (Definition 4), the delayed-read class
// (Definition 5), the data access graph (Section 3.3), and the three
// theorems' sufficient conditions with checkable certificates.
//
// The package also houses the online certifier a PWSR scheduler
// consults: Monitor, the single-goroutine incremental certifier
// (interned ids, per-item conflict frontiers, a Pearce–Kelly
// topological order, incremental retraction). It rests on the same
// locality the theory does: conflict edges only arise between
// operations on the same item, and Definition 2 judges each
// conjunct's projection in isolation (the per-conjunct framing Lemma 3
// and Theorem 1 argue through), so a conflict cycle can never span two
// conjuncts. Each conjunct therefore keeps its own graph over its own
// items, and the graphs' verdicts conjoin into the global PWSR
// admission decision.
//
// # Transaction lifecycle and bounded memory
//
// The monitor carries first-class transaction lifecycle so a
// long-lived service's certification state stays bounded by the
// concurrent window rather than growing with the stream: Commit marks
// a transaction finished, and Compact (run automatically every
// SetAutoCompact commits) physically reclaims every committed
// transaction no future cycle can reach. The soundness argument is
// the low-watermark observation online checkers rest on: a conflict
// edge is only ever drawn INTO the transaction performing the new
// operation, so a committed transaction — which never operates again
// — can never acquire another incoming edge. A committed transaction
// whose conflict-graph ancestors are all committed therefore sits in
// a region no future edge can enter (every edge into the region
// already exists and originates inside it), and no future cycle can
// pass through it: erasing the region's nodes, edges, frontier
// entries, access logs, and order slots preserves every future
// verdict exactly. A committed transaction with a live ancestor is
// retained — a path from a live transaction into it exists, so it can
// still sit on a cycle that live transaction closes. Violations are
// sticky across compaction, and the ReferenceMonitor carries the
// rebuild-from-surviving-history specification the differential tests
// replay against: TestCompactDifferential and the native fuzz target
// FuzzCommitCompact.
//
// The same observation makes whole-transaction admission unconditional.
// A fresh transaction — holding no observed operation — has no
// outgoing edge, and its own operations only add edges into it, so no
// cycle can pass through it while its sequence is observed:
// AdmitSequence is the contract check plus the observe loop, with no
// probe and no rollback (TestFreshSequenceNeverDenied probes anyway,
// and finds nothing denied).
//
// What a pass reclaims is recycled, not freed. The transaction interner
// and the dense per-transaction tables are filtered in place; each
// graph's nodes, order, search marks and id translation are filtered in
// place and its edge table is rehashed into its own arrays; a reclaimed
// node's slot keeps its adjacency and item lists (up to spareListMax
// entries each) for the next fresh node, and a reclaimed transaction's
// conjunct list goes to the next fresh transaction. The items
// accessed since the previous pass keep their lists, at most
// max(listMin, 2×len) of capacity each; the lists of an item untouched
// for a whole interval are let go. So a steady commit stream allocates
// nothing per transaction (TestZeroAllocFreshAdmission), and what a
// certifier retains is bounded by the largest population it held
// between two passes: tables and node slots for that many
// transactions, and lists for the items of one interval.
//
// A consequence callers of the inspection surface must respect:
// residency outlasts commitment. A committed transaction stays in
// LiveTxnIDs until a Compact pass reclaims it; InFlightTxnIDs is the
// resident-and-uncommitted subset — the set still able to acquire
// edges, and therefore the set a graceful drain waits on or retracts
// (Retract panics on a committed transaction, CheckedRetract returns
// the typed *LifecycleError instead). Cancellation upholds the same
// lifecycle: a cancelled run retracts its in-flight transactions
// through the ordinary Retract path, journaled like any abort, so
// cancel-equals-abort holds all the way down to the recovered
// monitor.
//
// # Lifecycle logging, snapshots, and recovery
//
// The monitor accepts a LifecycleSink (SetSink): every Observe,
// Retract, Commit, and Compact is mirrored to the sink after it is
// applied, which is all a write-ahead journal needs to make
// certification state durable (internal/wal is the reference sink;
// the certification gates acknowledge an admission only after the
// sink's barrier). Recover rebuilds a monitor from a Snapshot — the
// surviving lifecycle stream a compaction pass left behind — plus the
// suffix of events logged after the cut, and the rebuild is
// verdict-identical to the monitor that emitted the stream: PWSR
// flag, surviving ops, live set, conflict edges, and lifecycle
// counters all match (sched's requireSameCertState, wal's
// TestCrashMatrix). The one shape constraint is that a snapshot must
// be a compact-point cut — captured immediately after a compaction
// pass — because replaying a surviving stream and then normalizing
// with one pass is only guaranteed to reconverge from that shape
// ("committed with no live ancestor" never un-satisfies, so the
// normalizing pass reclaims exactly what the original pass already
// had). wal.Writer cuts snapshots only inside LogCompact and
// wal.Resume runs one pass before cutting its baseline, so every
// snapshot the system writes has the required shape.
//
// What happens when the sink's storage fails is the gate's policy,
// not the certifier's: the monitor keeps applying events and
// mirroring them; the gate stops granting (fail-stop) once a record
// cannot reach the log — see sched.AttachJournal and the wal package
// comment on failure handling. The certifier's contribution to that
// story is that its event stream is replayable: any durable prefix of the mirrored
// stream rebuilds a verdict-identical monitor, which is the oracle
// internal/experiments' chaos differential checks after every
// injected outage.
package core

import (
	"fmt"
	"strings"
	"sync"

	"pwsr/internal/constraint"
	"pwsr/internal/dag"
	"pwsr/internal/serial"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// System bundles an integrity constraint with the schema of the
// database it constrains, and exposes the paper's consistency and
// correctness judgments.
type System struct {
	// IC is the integrity constraint IC = C1 ∧ … ∧ Cl.
	IC *constraint.IC
	// Schema declares the domain of every data item.
	Schema state.Schema

	checker *constraint.Checker
}

// NewSystem builds a System.
func NewSystem(ic *constraint.IC, schema state.Schema) *System {
	return &System{IC: ic, Schema: schema, checker: constraint.NewChecker(ic, schema)}
}

// Checker exposes the underlying consistency checker.
func (sys *System) Checker() *constraint.Checker { return sys.checker }

// Consistent decides consistency of a (possibly partial) database
// state: whether it extends to a full state satisfying IC.
func (sys *System) Consistent(db state.DB) (bool, error) {
	return sys.checker.Consistent(db)
}

// Partition returns the conjunct data sets d1, …, dl.
func (sys *System) Partition() []state.ItemSet { return sys.IC.Partition() }

// SetReport is the per-conjunct component of a PWSR check.
type SetReport struct {
	// Conjunct is the 0-based conjunct index.
	Conjunct int
	// Items is the conjunct's data set de.
	Items state.ItemSet
	// Serializable reports whether S^de is conflict serializable.
	Serializable bool
	// Order is one serialization order when Serializable.
	Order []int
	// Cycle is a conflict-graph cycle when !Serializable.
	Cycle []int
}

// PWSRReport is the result of a PWSR check (Definition 2).
type PWSRReport struct {
	// PWSR is the verdict: every projection serializable.
	PWSR bool
	// PerSet holds the per-conjunct verdicts.
	PerSet []SetReport
}

// String summarizes the report.
func (r *PWSRReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PWSR: %v", r.PWSR)
	for _, s := range r.PerSet {
		if s.Serializable {
			fmt.Fprintf(&b, "; C%d serializable %v", s.Conjunct+1, s.Order)
		} else {
			fmt.Fprintf(&b, "; C%d NOT serializable (cycle %v)", s.Conjunct+1, s.Cycle)
		}
	}
	return b.String()
}

// CheckPWSR decides Definition 2 for s: the restriction of s to every
// conjunct's data set must be conflict serializable.
func (sys *System) CheckPWSR(s *txn.Schedule) *PWSRReport {
	return CheckPWSR(s, sys.Partition())
}

// checkParallelThreshold is the schedule length at which CheckPWSR
// shards per-conjunct graph work across goroutines.
var checkParallelThreshold = 4096

// CheckPWSR decides Definition 2 against an explicit partition. The
// schedule is projected into every conjunct in one pass (RestrictAll),
// and on long schedules with several conjuncts the per-conjunct graph
// construction and acyclicity checks run in parallel; the report is
// deterministic either way.
func CheckPWSR(s *txn.Schedule, partition []state.ItemSet) *PWSRReport {
	report := &PWSRReport{PWSR: true, PerSet: make([]SetReport, len(partition))}
	projs := s.RestrictAll(partition)
	check := func(e int) {
		g := serial.BuildGraph(projs[e])
		sr := SetReport{Conjunct: e, Items: partition[e]}
		if order := g.TopoOrder(); order != nil {
			sr.Serializable = true
			sr.Order = order
		} else {
			sr.Cycle = g.Cycle()
		}
		report.PerSet[e] = sr
	}
	if len(partition) > 1 && s.Len() >= checkParallelThreshold {
		var wg sync.WaitGroup
		for e := range partition {
			wg.Add(1)
			go func(e int) {
				defer wg.Done()
				check(e)
			}(e)
		}
		wg.Wait()
	} else {
		for e := range partition {
			check(e)
		}
	}
	for e := range report.PerSet {
		if !report.PerSet[e].Serializable {
			report.PWSR = false
		}
	}
	return report
}

// ReadReport is the per-transaction component of a strong-correctness
// check.
type ReadReport struct {
	// Txn is the transaction id.
	Txn int
	// Reads is read(Ti).
	Reads state.DB
	// Consistent reports whether read(Ti) is a consistent restriction.
	Consistent bool
}

// StrongCorrectnessReport is the result of checking Definition 1.
type StrongCorrectnessReport struct {
	// StronglyCorrect is the verdict.
	StronglyCorrect bool
	// FinalConsistent reports whether [DS1] S [DS2] gives consistent
	// DS2.
	FinalConsistent bool
	// Final is DS2.
	Final state.DB
	// PerTxn holds each transaction's read-consistency verdict.
	PerTxn []ReadReport
}

// Violations lists human-readable reasons when not strongly correct.
func (r *StrongCorrectnessReport) Violations() []string {
	var out []string
	if !r.FinalConsistent {
		out = append(out, fmt.Sprintf("final state %v violates the integrity constraint", r.Final))
	}
	for _, t := range r.PerTxn {
		if !t.Consistent {
			out = append(out, fmt.Sprintf("T%d read inconsistent data %v", t.Txn, t.Reads))
		}
	}
	return out
}

// CheckStrongCorrectness decides Definition 1 for schedule s executed
// from the consistent state initial: the resulting state must be
// consistent, and every transaction's read(Ti) must be consistent.
func (sys *System) CheckStrongCorrectness(s *txn.Schedule, initial state.DB) (*StrongCorrectnessReport, error) {
	report := &StrongCorrectnessReport{StronglyCorrect: true}

	report.Final = s.FinalState(initial)
	ok, err := sys.checker.Consistent(report.Final)
	if err != nil {
		return nil, fmt.Errorf("core: final state: %w", err)
	}
	report.FinalConsistent = ok
	if !ok {
		report.StronglyCorrect = false
	}

	for _, t := range s.Transactions() {
		reads := t.ReadState()
		ok, err := sys.checker.Consistent(reads)
		if err != nil {
			return nil, fmt.Errorf("core: read(T%d): %w", t.ID, err)
		}
		report.PerTxn = append(report.PerTxn, ReadReport{Txn: t.ID, Reads: reads, Consistent: ok})
		if !ok {
			report.StronglyCorrect = false
		}
	}
	return report, nil
}

// DataAccessGraph builds DAG(S, IC) for s under this system's
// partition.
func (sys *System) DataAccessGraph(s *txn.Schedule) *dag.Graph {
	return dag.Build(s, sys.Partition())
}
