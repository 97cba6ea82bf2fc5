package sched

import (
	"slices"

	"pwsr/internal/exec"
)

// The sched policies and certification gates implement
// exec.PolicyCloner: ClonePolicy returns an independent instance
// equivalent to a freshly constructed one — construction-time
// configuration (seeds, orders, partitions, victim and solo settings,
// inner policies) carried over, accumulated run state
// reset, nothing mutable shared. This is what lets exec.RunManyCtx hand
// every run its own policy while the caller's configs stay reusable.
var (
	_ exec.PolicyCloner = (*Script)(nil)
	_ exec.PolicyCloner = (*RoundRobin)(nil)
	_ exec.PolicyCloner = (*Random)(nil)
	_ exec.PolicyCloner = (*Serial)(nil)
	_ exec.PolicyCloner = (*DelayedRead)(nil)
	_ exec.PolicyCloner = (*C2PL)(nil)
	_ exec.PolicyCloner = (*PW2PL)(nil)
	_ exec.PolicyCloner = (*Degree2)(nil)
	_ exec.PolicyCloner = (*Certify)(nil)
	_ exec.PolicyCloner = (*OptimisticCertify)(nil)
)

// ClonePolicy implements exec.PolicyCloner.
func (s *Script) ClonePolicy() exec.Policy {
	return &Script{Order: slices.Clone(s.Order)}
}

// ClonePolicy implements exec.PolicyCloner.
func (r *RoundRobin) ClonePolicy() exec.Policy { return &RoundRobin{} }

// ClonePolicy implements exec.PolicyCloner: the clone restarts the
// deterministic stream from the construction-time seed.
func (r *Random) ClonePolicy() exec.Policy {
	return &Random{state: r.seed, seed: r.seed}
}

// ClonePolicy implements exec.PolicyCloner.
func (s *Serial) ClonePolicy() exec.Policy { return &Serial{} }

// ClonePolicy implements exec.PolicyCloner; nil when the inner policy
// is not cloneable.
func (d *DelayedRead) ClonePolicy() exec.Policy {
	inner, ok := exec.TryClonePolicy(d.Inner)
	if !ok {
		return nil
	}
	return &DelayedRead{Inner: inner}
}

// ClonePolicy implements exec.PolicyCloner.
func (c *C2PL) ClonePolicy() exec.Policy {
	clone := NewC2PL()
	clone.CoordCostPerExtraSet = c.CoordCostPerExtraSet
	return clone
}

// ClonePolicy implements exec.PolicyCloner.
func (p *PW2PL) ClonePolicy() exec.Policy {
	clone := NewPW2PL()
	clone.UnconstrainedAsSet = p.UnconstrainedAsSet
	return clone
}

// ClonePolicy implements exec.PolicyCloner.
func (d *Degree2) ClonePolicy() exec.Policy { return NewDegree2() }

// ClonePolicy implements exec.PolicyCloner; nil for gates built over
// an external certifier (NewCertifyOver, ResumeCertify — the
// partition is unknown and the certifier carries history) or wrapping
// a non-cloneable inner policy. Journals are not cloned: a clone
// starts without one, as freshly constructed.
func (c *Certify) ClonePolicy() exec.Policy {
	if c.partition == nil {
		return nil
	}
	inner, ok := exec.TryClonePolicy(c.Inner)
	if !ok {
		return nil
	}
	return NewCertify(c.partition, inner)
}

// ClonePolicy implements exec.PolicyCloner, with Certify.ClonePolicy's
// caveats.
func (c *OptimisticCertify) ClonePolicy() exec.Policy {
	if c.partition == nil {
		return nil
	}
	inner, ok := exec.TryClonePolicy(c.Inner)
	if !ok {
		return nil
	}
	clone := NewOptimisticCertify(c.partition, inner, c.VictimSelect)
	clone.SoloThreshold = c.SoloThreshold
	return clone
}
