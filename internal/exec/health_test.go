package exec_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

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

// TestStallCarriesBufferingPosture pins the outage-observability fix:
// a stall while the gate is buffering through a journal outage keeps
// the ErrStall identity (the gate is still admitting) but the error
// must carry the outage posture — queue depth, outage age, and the
// journal error — instead of reading like a bare scheduling stall.
func TestStallCarriesBufferingPosture(t *testing.T) {
	jerr := errors.New("backend device offline")
	pol := &stalledPolicy{h: exec.Health{
		Mode:       exec.ModeBuffering,
		JournalErr: jerr,
		Queued:     3,
		OutageAge:  1500 * time.Millisecond,
	}}
	_, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: map[int]*program.Program{1: program.MustParse("program T1 {\n  let v := x;\n}\n")},
		Initial:  state.Ints(map[string]int64{"x": 0}),
		Policy:   pol,
	})
	if !errors.Is(err, exec.ErrStall) {
		t.Fatalf("err = %v, want an ErrStall-wrapping error (buffering is not an outage verdict)", err)
	}
	for _, want := range []string{"buffering", "3 queued", "1.5s", "backend device offline"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("stall error %q does not carry %q", err, want)
		}
	}

	// A healthy gate's stall stays a plain stall.
	pol.h = exec.Health{Mode: exec.ModeOK}
	_, err = exec.RunCtx(context.Background(), exec.Config{
		Programs: map[int]*program.Program{1: program.MustParse("program T1 {\n  let v := x;\n}\n")},
		Initial:  state.Ints(map[string]int64{"x": 0}),
		Policy:   pol,
	})
	if !errors.Is(err, exec.ErrStall) || strings.Contains(err.Error(), "buffering") {
		t.Fatalf("healthy stall = %v, want a bare ErrStall", err)
	}
}
