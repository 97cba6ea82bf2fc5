package sched

import (
	"pwsr/internal/exec"
	"pwsr/internal/txn"
)

// Script grants operations in a fixed per-operation transaction order,
// used to reproduce the paper's printed schedules exactly.
type Script struct {
	// Order lists the transaction granted at each step.
	Order []int
	pos   int
}

// NewScript returns a scripted policy.
func NewScript(order ...int) *Script { return &Script{Order: order} }

// Pick implements exec.Policy.
func (s *Script) Pick(pending []*exec.Request, v *exec.View) int {
	if s.pos >= len(s.Order) {
		return -1
	}
	want := s.Order[s.pos]
	for i, r := range pending {
		if r.TxnID == want {
			s.pos++
			return i
		}
	}
	return -1
}

// TxnFinished implements exec.Policy.
func (s *Script) TxnFinished(int, *exec.View) {}

// RoundRobin grants one operation per live transaction in rotation.
type RoundRobin struct {
	last int
}

// Pick implements exec.Policy.
func (r *RoundRobin) Pick(pending []*exec.Request, v *exec.View) int {
	// pending is sorted by txn id; pick the first id greater than last,
	// wrapping around.
	for i, req := range pending {
		if req.TxnID > r.last {
			r.last = req.TxnID
			return i
		}
	}
	r.last = pending[0].TxnID
	return 0
}

// TxnFinished implements exec.Policy.
func (r *RoundRobin) TxnFinished(int, *exec.View) {}

// Random grants a uniformly random pending request, seeded for
// reproducibility. The generator is an inlined splitmix64: policy
// construction is on the per-workload hot path of the certification
// studies, and seeding a stdlib math/rand source costs more than many
// whole scheduling runs (it initializes a ~600-word lagged-Fibonacci
// state), while splitmix64 seeds with one multiply and still passes
// the uniformity the studies need.
type Random struct {
	state uint64
}

// NewRandom returns a random policy with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{state: uint64(seed)}
}

// next advances the splitmix64 state.
func (r *Random) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Pick implements exec.Policy.
func (r *Random) Pick(pending []*exec.Request, v *exec.View) int {
	return int(r.next() % uint64(len(pending)))
}

// TxnFinished implements exec.Policy.
func (r *Random) TxnFinished(int, *exec.View) {}

// Serial runs transactions one at a time in ascending id order,
// producing a serial schedule (the baseline of baselines).
type Serial struct {
	current int
	active  bool
}

// Pick implements exec.Policy.
func (s *Serial) Pick(pending []*exec.Request, v *exec.View) int {
	if s.active && v.Live[s.current] {
		for i, r := range pending {
			if r.TxnID == s.current {
				return i
			}
		}
		return -1
	}
	// Start the lowest pending transaction.
	s.current = pending[0].TxnID
	s.active = true
	return 0
}

// TxnFinished implements exec.Policy.
func (s *Serial) TxnFinished(id int, v *exec.View) {
	if id == s.current {
		s.active = false
	}
}

// DelayedRead wraps a policy with the DR gate of Section 3.2: a read of
// an item whose last writer has not finished is not grantable. Schedules
// produced under this gate are DR by construction (a transaction never
// reads from an unfinished transaction), mirroring the ACA schedules
// real systems produce.
type DelayedRead struct {
	// Inner picks among the unblocked requests.
	Inner exec.Policy

	// Per-tick scratch, reused across Pick calls.
	allowed []*exec.Request
	idx     []int
}

// delayedReadBlocked reports the DR gate's rule: a read of an item
// whose last writer is another, unfinished transaction is not
// grantable. Shared with the cascadeless optimistic certification gate.
func delayedReadBlocked(r *exec.Request, v *exec.View) bool {
	if r.Action != txn.ActionRead {
		return false
	}
	w := v.LastWriter[r.Item]
	return w != 0 && w != r.TxnID && !v.Finished[w]
}

// Pick implements exec.Policy.
func (d *DelayedRead) Pick(pending []*exec.Request, v *exec.View) int {
	d.allowed, d.idx = d.allowed[:0], d.idx[:0]
	for i, r := range pending {
		if delayedReadBlocked(r, v) {
			continue
		}
		d.allowed = append(d.allowed, r)
		d.idx = append(d.idx, i)
	}
	if len(d.allowed) == 0 {
		return -1
	}
	inner := d.Inner.Pick(d.allowed, v)
	if inner < 0 || inner >= len(d.allowed) {
		return -1
	}
	return d.idx[inner]
}

// TxnFinished implements exec.Policy.
func (d *DelayedRead) TxnFinished(id int, v *exec.View) { d.Inner.TxnFinished(id, v) }
