package sched

import (
	"slices"

	"pwsr/internal/exec"
	"pwsr/internal/txn"
)

// verdictMemo carries the certification gate's admissibility verdicts
// from tick to tick, one per run slot, so a tick re-decides in place only
// the requests whose inputs moved (the package comment's "Incremental
// ticks" states the rule, why it is exact and why the slot decides
// nothing), and holds the reused per-tick scratch.
type verdictMemo struct {
	mon     Certifier
	epoch   []uint64           // one counter per conjunct, then the outside-every-conjunct counter
	global  uint64             // part of every stamp; ≥ 1 once in use, so stamp 0 means undecided
	passes  int                // the certifier's compaction passes as of the last commit
	epochs  map[string][]int32 // partition item → the counters its verdicts depend on, built once
	outside []int32            // the counters of every other item: the outside one alone
	// touched maps a transaction to the counters of its granted items;
	// spare recycles the lists.
	touched map[int][]int32
	spare   [][]int32
	view    *exec.View // LastWriter and Finished belong to one run's view

	// table holds the verdicts by run slot (exec.Request.Slot); adm,
	// allowed and idx, the tick's mask and admissible requests, follow
	// pending order.
	table   []verdict
	adm     []bool
	allowed []*exec.Request
	idx     []int
	// declined reports that the last grant's inner policy picked
	// nothing from a non-empty admissible set: the stall is the inner
	// policy's, and Victim declines it.
	declined bool
}

// verdict is one request's memoized decision.
type verdict struct {
	txn    int
	entity string
	epochs []int32
	stamp  uint64
	action txn.Action
	ok     bool
}

// mask fills m.adm for the pending requests: lifecycle posture and solo
// exclusivity (0 = none) first, then the verdict in the request's slot —
// reset to undecided when it was decided for another transaction, action
// or item — re-decided in place when stale: the delayed-read rule, then
// the certifier.
func (m *verdictMemo) mask(pending []*exec.Request, v *exec.View, lc *lifecycle, solo int) {
	if m.epoch == nil {
		partition := m.mon.Partition()
		m.epoch = make([]uint64, len(partition)+1)
		m.epochs = make(map[string][]int32)
		for e, d := range partition {
			for item := range d {
				m.epochs[item] = append(m.epochs[item], int32(e))
			}
		}
		m.outside = []int32{int32(len(partition))}
		m.touched = make(map[int][]int32)
		m.global++
	}
	if v != m.view {
		m.view = v
		m.global++
		clear(m.touched) // a failed run never settles its transactions
	}
	m.adm = m.adm[:0]
	for _, r := range pending {
		ok := !lc.blocked(r.TxnID) && (solo == 0 || r.TxnID == solo)
		if ok {
			s := max(r.Slot, 0)
			if s >= len(m.table) {
				m.table = append(m.table, make([]verdict, s+1-len(m.table))...)
			}
			e := &m.table[s]
			if e.txn != r.TxnID || e.action != r.Action || e.entity != r.Entity {
				*e = verdict{txn: r.TxnID, action: r.Action, entity: r.Entity, epochs: m.epochsOf(r.Entity)}
			}
			stamp := m.global
			for _, c := range e.epochs {
				stamp += m.epoch[c]
			}
			if stamp != e.stamp {
				e.stamp = stamp
				e.ok = !delayedReadBlocked(r, v) && m.mon.Admissible(requestOp(r))
			}
			ok = e.ok
		}
		m.adm = append(m.adm, ok)
	}
}

// epochsOf returns the epoch counters an item's verdicts depend on: its
// conjuncts', or the shared outside one.
func (m *verdictMemo) epochsOf(item string) []int32 {
	if s, ok := m.epochs[item]; ok {
		return s
	}
	return m.outside
}

// grant lets inner choose among the requests the mask passed and commits
// the choice to the certifier, returning its index in pending,
// exec.PassTick, or -1: nothing grantable, or a grant not made durable.
func (m *verdictMemo) grant(pending []*exec.Request, v *exec.View, inner exec.Policy, jn *journaled) int {
	m.allowed, m.idx, m.declined = m.allowed[:0], m.idx[:0], false
	for i, r := range pending {
		if m.adm[i] {
			m.allowed = append(m.allowed, r)
			m.idx = append(m.idx, i)
		}
	}
	if len(m.allowed) == 0 {
		return -1
	}
	in := inner.Pick(m.allowed, v)
	if in == exec.PassTick {
		return exec.PassTick
	}
	if in < 0 || in >= len(m.allowed) {
		m.declined = true
		return -1
	}
	pick := m.idx[in]
	m.mon.Observe(requestOp(pending[pick]))
	id := pending[pick].TxnID
	t, ok := m.touched[id]
	if n := len(m.spare); !ok && n > 0 {
		t, m.spare = m.spare[n-1], m.spare[:n-1]
	}
	for _, c := range m.epochsOf(pending[pick].Entity) {
		m.epoch[c]++
		if !slices.Contains(t, c) {
			t = append(t, c)
		}
	}
	m.touched[id] = t
	if !jn.ack() {
		return -1 // grant not durable: refuse it and freeze the gate
	}
	return pick
}

// settle moves the epochs of every conjunct transaction id was granted
// in, once certifier and view reflect its abort, cancel or commit.
func (m *verdictMemo) settle(id int) {
	if t, ok := m.touched[id]; ok {
		for _, c := range t {
			m.epoch[c]++
		}
		delete(m.touched, id)
		m.spare = append(m.spare, t[:0])
	}
}

// commit marks transaction id finished in the certifier; a compaction
// pass since the last commit (this one may trigger it) moves the global
// epoch.
func (m *verdictMemo) commit(id int) {
	m.mon.Commit(id)
	if n := m.mon.CompactStats().Compactions; n != m.passes {
		m.passes = n
		m.global++
	}
	m.settle(id)
}

// requestOp views a pending request as an operation for the monitor,
// which ignores values and positions.
func requestOp(r *exec.Request) txn.Op {
	return txn.Op{Txn: r.TxnID, Action: r.Action, Entity: r.Entity, Value: r.Value, Pos: -1}
}
