package sched

import (
	"pwsr/internal/exec"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// C2PL is conservative strict two-phase locking: a transaction acquires
// its entire declared lock set atomically before its first operation and
// releases everything when it finishes. Conservative acquisition makes
// the protocol deadlock free; strict release makes its schedules ACA
// (and hence DR) and serializable. This is the serializable baseline the
// PWSR experiments compare against.
type C2PL struct {
	table   *LockTable
	holding map[int]bool
	rr      int

	// CoordCostPerExtraSet charges this many passed clock ticks when
	// acquiring a lock set spanning more than one conjunct data set:
	// (distinct sets − 1) × cost, modelling a global lock manager's
	// cross-site coordination round trips in the MDBS experiment. Zero
	// (the default) charges nothing.
	CoordCostPerExtraSet int
	owed                 map[int]int
	charged              map[int]bool
}

// NewC2PL returns a fresh conservative 2PL policy.
func NewC2PL() *C2PL {
	return &C2PL{
		table:   NewLockTable(),
		holding: make(map[int]bool),
		owed:    make(map[int]int),
		charged: make(map[int]bool),
	}
}

// coordDebt computes the coordination ticks owed before txn id's
// acquisition, based on how many conjunct data sets its declared access
// spans.
func (c *C2PL) coordDebt(id int, v *exec.View) int {
	if c.CoordCostPerExtraSet <= 0 || len(v.DataSets) == 0 {
		return 0
	}
	a := v.AccessOf(id)
	spanned := map[int]bool{}
	for it := range a.Reads.Union(a.Writes) {
		spanned[setOf(v, it)] = true
	}
	if len(spanned) <= 1 {
		return 0
	}
	return (len(spanned) - 1) * c.CoordCostPerExtraSet
}

// Pick implements exec.Policy: lock holders go first (they can always
// proceed); otherwise the next transaction whose full lock set is
// available acquires it and proceeds. Iteration rotates across calls so
// no transaction is starved.
func (c *C2PL) Pick(pending []*exec.Request, v *exec.View) int {
	defer func() { c.rr++ }()
	n := len(pending)
	for k := 0; k < n; k++ {
		i := (c.rr + k) % n
		if c.holding[pending[i].TxnID] {
			return i
		}
	}
	for k := 0; k < n; k++ {
		i := (c.rr + k) % n
		r := pending[i]
		a := v.AccessOf(r.TxnID)
		if c.table.CanAcquire(r.TxnID, a.Reads, a.Writes) {
			// Charge the coordination latency for a multi-set
			// acquisition before it takes effect.
			if !c.charged[r.TxnID] {
				c.charged[r.TxnID] = true
				c.owed[r.TxnID] = c.coordDebt(r.TxnID, v)
			}
			if c.owed[r.TxnID] > 0 {
				c.owed[r.TxnID]--
				return exec.PassTick
			}
			if err := c.table.Acquire(r.TxnID, a.Reads, a.Writes); err != nil {
				return -1
			}
			c.holding[r.TxnID] = true
			return i
		}
	}
	return -1
}

// TxnFinished implements exec.Policy.
func (c *C2PL) TxnFinished(id int, v *exec.View) {
	c.table.ReleaseAll(id)
	delete(c.holding, id)
}

// PW2PL is predicate-wise conservative two-phase locking: locking is
// per conjunct data set. A transaction atomically acquires the locks for
// data set dk (its declared items within dk) at its first operation on
// dk, and releases them as soon as it can perform no further operation
// on dk — an item is spent once written, or once read if the
// transaction never writes it (the §2.2 access discipline makes both
// final). The projection of the resulting schedule onto each data set is
// conflict serializable, so the schedule is PWSR; globally it need not
// be serializable.
//
// Deadlock freedom requires transactions to first-touch data sets in
// ascending conjunct order (the generators and examples comply); a
// violation can deadlock, which surfaces as exec.ErrStall.
type PW2PL struct {
	table *LockTable
	// acquired[id][k] records that txn id holds set k's locks.
	acquired map[int]map[int]bool
	// remaining[id][k] is the set of declared items of txn id in set k
	// not yet spent.
	remaining map[int]map[int]state.ItemSet
	// UnconstrainedAsSet controls whether items outside every data set
	// are locked for the whole transaction (true) or not locked at all.
	UnconstrainedAsSet bool
	rr                 int
}

// NewPW2PL returns a fresh predicate-wise conservative 2PL policy.
func NewPW2PL() *PW2PL {
	return &PW2PL{
		table:              NewLockTable(),
		acquired:           make(map[int]map[int]bool),
		remaining:          make(map[int]map[int]state.ItemSet),
		UnconstrainedAsSet: true,
	}
}

// setOf returns the index of the data set containing item, or -1.
func setOf(v *exec.View, item string) int {
	for k, d := range v.DataSets {
		if d.Contains(item) {
			return k
		}
	}
	return -1
}

// Pick implements exec.Policy. Iteration rotates across calls so no
// transaction is starved.
func (p *PW2PL) Pick(pending []*exec.Request, v *exec.View) int {
	defer func() { p.rr++ }()
	n := len(pending)
	for k := 0; k < n; k++ {
		i := (p.rr + k) % n
		if p.grantable(pending[i], v) {
			p.grant(pending[i], v)
			return i
		}
	}
	return -1
}

func (p *PW2PL) grantable(r *exec.Request, v *exec.View) bool {
	k := setOf(v, r.Entity)
	if p.acquired[r.TxnID][k] {
		return true
	}
	reads, writes := p.setAccess(r.TxnID, k, v)
	return p.table.CanAcquire(r.TxnID, reads, writes)
}

// setAccess returns txn id's declared reads and writes within set k
// (k = -1 collects the items outside every set).
func (p *PW2PL) setAccess(id, k int, v *exec.View) (reads, writes state.ItemSet) {
	a := v.AccessOf(id)
	in := func(item string) bool {
		if k == -1 {
			return setOf(v, item) == -1
		}
		return v.DataSets[k].Contains(item)
	}
	reads, writes = state.NewItemSet(), state.NewItemSet()
	for it := range a.Reads {
		if in(it) {
			reads.Add(it)
		}
	}
	for it := range a.Writes {
		if in(it) {
			writes.Add(it)
		}
	}
	return reads, writes
}

func (p *PW2PL) grant(r *exec.Request, v *exec.View) {
	id := r.TxnID
	k := setOf(v, r.Entity)
	if !p.acquired[id][k] {
		reads, writes := p.setAccess(id, k, v)
		if err := p.table.Acquire(id, reads, writes); err != nil {
			// grantable() was checked by Pick; this cannot happen.
			panic(err)
		}
		if p.acquired[id] == nil {
			p.acquired[id] = make(map[int]bool)
			p.remaining[id] = make(map[int]state.ItemSet)
		}
		p.acquired[id][k] = true
		p.remaining[id][k] = reads.Union(writes)
	}

	// Spend the item when this is its final possible operation.
	a := v.AccessOf(id)
	spent := r.Action == txn.ActionWrite || !a.Writes.Contains(r.Entity)
	if spent {
		rem := p.remaining[id][k]
		delete(rem, r.Entity)
		if rem.Empty() && !(k == -1 && p.UnconstrainedAsSet) {
			reads, writes := p.setAccess(id, k, v)
			p.table.ReleaseItems(id, reads.Union(writes))
			delete(p.acquired[id], k)
			delete(p.remaining[id], k)
		}
	}
}

// TxnFinished implements exec.Policy.
func (p *PW2PL) TxnFinished(id int, v *exec.View) {
	p.table.ReleaseAll(id)
	delete(p.acquired, id)
	delete(p.remaining, id)
}
