package sched

import (
	"slices"
	"sync"

	"pwsr/internal/exec"
	"pwsr/internal/txn"
)

// verdictMemo carries the certification gates' admissibility verdicts
// from tick to tick, so a tick re-decides only the requests whose inputs
// moved (the package comment's "Incremental ticks" states the rule and
// why it is exact), and holds the reused per-tick scratch.
type verdictMemo struct {
	mon    Certifier
	epoch  []uint64           // one per conjunct, then the outside-every-conjunct slot
	global uint64             // part of every stamp; ≥ 1 once in use, so stamp 0 means undecided
	passes int                // the certifier's compaction passes as of the last commit
	slots  map[string][]int32 // item → the epoch slots its verdicts depend on
	// touched maps a transaction to the slots of its granted items;
	// spare recycles the lists.
	touched map[int][]int32
	spare   [][]int32
	view    *exec.View // LastWriter and Finished belong to one run's view

	// cur holds this tick's verdicts in pending order; old is last
	// tick's, merged from by transaction id (the engine's pending list
	// is id-sorted; anything else merely misses and is decided afresh).
	cur, old []verdict
	stale    []int  // entries awaiting an Admissible probe this tick
	adm      []bool // the tick's admissibility mask
	allowed  []*exec.Request
	idx      []int
}

// verdict is one pending request's memoized decision.
type verdict struct {
	txn    int
	entity string
	slots  []int32
	stamp  uint64
	action txn.Action
	ok     bool
}

// parallelProbeThreshold is the number of stale probes below which a
// fanned-out mask probes inline: a probe costs tens of nanoseconds (one
// shard lock, a frontier lookup, an order comparison) while a goroutine
// spawn plus WaitGroup round trip costs on the order of a microsecond,
// so the fan-out only pays for itself once enough probes can overlap on
// disjoint shards.
const parallelProbeThreshold = 4

// mask fills m.adm for the pending requests: lifecycle posture and solo
// exclusivity (0 = none) first, then the memoized verdict, re-decided
// only when stale — the delayed-read rule when the gate applies it, then
// the certifier, concurrently when fan is set.
func (m *verdictMemo) mask(pending []*exec.Request, v *exec.View, lc *lifecycle, solo int, delayedRead, fan bool) {
	if m.epoch == nil {
		m.epoch = make([]uint64, len(m.mon.Partition())+1)
		m.slots = make(map[string][]int32)
		m.touched = make(map[int][]int32)
		m.global++
	}
	if v != m.view {
		m.view = v
		m.global++
	}
	m.old, m.cur = m.cur, m.old[:0]
	m.stale, m.adm = m.stale[:0], m.adm[:0]
	j := 0
	for i, r := range pending {
		for j < len(m.old) && m.old[j].txn < r.TxnID {
			j++
		}
		if j < len(m.old) && m.old[j].txn == r.TxnID && m.old[j].action == r.Action && m.old[j].entity == r.Entity {
			m.cur = append(m.cur, m.old[j])
		} else {
			m.cur = append(m.cur, verdict{txn: r.TxnID, action: r.Action, entity: r.Entity, slots: m.slotsOf(r.Entity)})
		}
		e := &m.cur[i]
		open := !lc.blocked(r.TxnID) && (solo == 0 || r.TxnID == solo)
		if open {
			stamp := m.global
			for _, s := range e.slots {
				stamp += m.epoch[s]
			}
			if stamp != e.stamp {
				e.stamp = stamp
				e.ok = !(delayedRead && delayedReadBlocked(r, v))
				if e.ok {
					m.stale = append(m.stale, i)
				}
			}
		}
		m.adm = append(m.adm, open && e.ok)
	}
	if !fan || len(m.stale) < parallelProbeThreshold {
		for _, i := range m.stale {
			m.probe(pending, i)
		}
		return
	}
	var wg sync.WaitGroup
	for _, i := range m.stale {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.probe(pending, i)
		}(i)
	}
	wg.Wait()
}

// probe asks the certifier about stale entry i.
func (m *verdictMemo) probe(pending []*exec.Request, i int) {
	m.cur[i].ok = m.mon.Admissible(requestOp(pending[i]))
	m.adm[i] = m.cur[i].ok
}

// slotsOf returns the epoch slots an item's verdicts depend on: its
// conjuncts, or the shared outside slot.
func (m *verdictMemo) slotsOf(item string) []int32 {
	s, ok := m.slots[item]
	if !ok {
		for e, d := range m.mon.Partition() {
			if d.Contains(item) {
				s = append(s, int32(e))
			}
		}
		if s == nil {
			s = []int32{int32(len(m.epoch) - 1)}
		}
		m.slots[item] = s
	}
	return s
}

// grant lets inner choose among the requests the mask passed and commits
// the choice to the certifier, returning its index in pending,
// exec.PassTick, or -1: nothing grantable, or a grant not made durable.
func (m *verdictMemo) grant(pending []*exec.Request, v *exec.View, inner exec.Policy, jn *journaled) int {
	m.allowed, m.idx = m.allowed[:0], m.idx[:0]
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
		return -1
	}
	pick := m.idx[in]
	m.mon.Observe(requestOp(pending[pick]))
	id := pending[pick].TxnID
	t, ok := m.touched[id]
	if n := len(m.spare); !ok && n > 0 {
		t, m.spare = m.spare[n-1], m.spare[:n-1]
	}
	for _, s := range m.cur[pick].slots {
		m.epoch[s]++
		if !slices.Contains(t, s) {
			t = append(t, s)
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
		for _, s := range t {
			m.epoch[s]++
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
