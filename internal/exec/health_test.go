package exec_test

import (
	"context"
	"errors"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/program"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// nopGate is the rest of an exec.Gate for a test policy that brings its
// own Pick and TxnFinished: embedded, it makes the policy a whole Gate
// that names no victim, certifies and journals nothing and reports zero
// stats. A policy that restarts victims brings its own Victim (and
// TxnAborted when it wants the notices).
type nopGate struct{}

func (nopGate) Victim([]*exec.Request, *exec.View) int { return -1 }
func (nopGate) TxnAborted(int, *exec.View)             {}
func (nopGate) TxnCanceled(int, *exec.View)            {}
func (nopGate) AdmitTxn([]txn.Op) error                { return nil }
func (nopGate) Drain(context.Context) error            { return nil }
func (nopGate) CompactWatermark() int                  { return 0 }
func (nopGate) Settle() error                          { return nil }
func (nopGate) Stats() exec.GateStats                  { return exec.GateStats{} }

// stalledPolicy is a Gate that refuses every pick and reports a fixed
// health posture — the minimal fixture for the stall-reclassification
// paths.
type stalledPolicy struct {
	nopGate
	h exec.Health
}

func (p *stalledPolicy) Pick(pending []*exec.Request, v *exec.View) int { return -1 }
func (p *stalledPolicy) TxnFinished(id int, v *exec.View)               {}
func (p *stalledPolicy) Stats() exec.GateStats                          { return exec.GateStats{Health: p.h} }

// TestStallCarriesBufferingPosture pins that a stall on a healthy,
// running gate stays a bare ErrStall: no outage or lifecycle posture is
// read into it.
func TestStallCarriesBufferingPosture(t *testing.T) {
	pol := &stalledPolicy{}
	_, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: map[int]*program.Program{1: program.MustParse("program T1 {\n  let v := x;\n}\n")},
		Initial:  state.Ints(map[string]int64{"x": 0}),
		Policy:   pol,
	})
	if !errors.Is(err, exec.ErrStall) || errors.Is(err, exec.ErrJournalDown) {
		t.Fatalf("healthy stall = %v, want a bare ErrStall", err)
	}
}
