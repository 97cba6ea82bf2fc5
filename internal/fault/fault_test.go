package fault

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"
)

// TestRuleWindows pins the occurrence-window semantics: 1-based From,
// half-open [From, From+Count), persistent when Count ≤ 0.
func TestRuleWindows(t *testing.T) {
	in := NewInjector(Plan{Rules: []Rule{
		{Site: "a", Op: OpSync, From: 2, Count: 2, Kind: KindError},
	}})
	var fired []int64
	for n := int64(1); n <= 5; n++ {
		d := in.Eval(Point{Site: "a", Op: OpSync})
		if d.Err != nil {
			fired = append(fired, n)
		}
	}
	if !reflect.DeepEqual(fired, []int64{2, 3}) {
		t.Fatalf("transient rule fired on %v, want [2 3]", fired)
	}

	in = NewInjector(Plan{Rules: []Rule{
		{Site: "a", Op: OpSync, From: 3, Count: 0, Kind: KindError},
	}})
	fired = fired[:0]
	for n := int64(1); n <= 6; n++ {
		if d := in.Eval(Point{Site: "a", Op: OpSync}); d.Err != nil {
			fired = append(fired, n)
		}
	}
	if !reflect.DeepEqual(fired, []int64{3, 4, 5, 6}) {
		t.Fatalf("persistent rule fired on %v, want [3 4 5 6]", fired)
	}

	// Only an unbounded failure is persistent: latency and cancel rules
	// never are, and a bounded window is a transient glitch.
	transient := Plan{Rules: []Rule{
		{Op: OpSync, From: 2, Count: 2, Kind: KindError},
		{Op: OpWrite, Count: 0, Kind: KindLatency},
		{Op: OpTick, Count: 0, Kind: KindCancel},
	}}
	if !transient.Transient() {
		t.Fatalf("plan %+v not transient", transient)
	}
	if persistent := (Plan{Rules: append(transient.Rules, Rule{Op: OpWrite, Count: 0, Kind: KindTorn})}); persistent.Transient() {
		t.Fatalf("plan %+v with an unbounded torn write reported transient", persistent)
	}
}

// TestCountersPerSiteOp pins that occurrences are counted per
// (site, op) pair: traffic on one site never advances another site's
// window, so plans are schedule-deterministic under interleaving.
func TestCountersPerSiteOp(t *testing.T) {
	in := NewInjector(Plan{Rules: []Rule{
		{Site: "b", Op: OpWrite, From: 1, Count: 1, Kind: KindError},
	}})
	for i := 0; i < 10; i++ {
		if d := in.Eval(Point{Site: "a", Op: OpWrite}); d.Err != nil {
			t.Fatalf("site a write %d unexpectedly failed: %v", i+1, d.Err)
		}
		if d := in.Eval(Point{Site: "b", Op: OpSync}); d.Err != nil {
			t.Fatalf("site b sync %d unexpectedly failed: %v", i+1, d.Err)
		}
	}
	if d := in.Eval(Point{Site: "b", Op: OpWrite}); d.Err == nil {
		t.Fatal("first site-b write should fail")
	} else if !errors.Is(d.Err, ErrInjected) {
		t.Fatalf("injected error %v is not ErrInjected", d.Err)
	}
	if got := in.Fired(); got != 1 {
		t.Fatalf("Fired() = %d, want 1", got)
	}
}

// TestFileMatchers pins File/ExceptFile restriction — the rule shape
// that expresses "fail every write except on the genesis segment".
func TestFileMatchers(t *testing.T) {
	in := NewInjector(Plan{Rules: []Rule{
		{Op: OpWrite, From: 1, Count: 0, Kind: KindError, ExceptFile: "00000000.wal"},
	}})
	if d := in.Eval(Point{Site: "w", Op: OpWrite, File: "00000000.wal"}); d.Err != nil {
		t.Fatalf("genesis write failed: %v", d.Err)
	}
	if d := in.Eval(Point{Site: "w", Op: OpWrite, File: "00000001.wal"}); d.Err == nil {
		t.Fatal("non-genesis write should fail")
	}
	in = NewInjector(Plan{Rules: []Rule{
		{Op: OpSync, From: 1, Count: 0, Kind: KindError, File: "00000002.wal"},
	}})
	if d := in.Eval(Point{Site: "w", Op: OpSync, File: "00000001.wal"}); d.Err != nil {
		t.Fatalf("unmatched file sync failed: %v", d.Err)
	}
	if d := in.Eval(Point{Site: "w", Op: OpSync, File: "00000002.wal"}); d.Err == nil {
		t.Fatal("matched file sync should fail")
	}
}

// TestDecisionShapes pins latency composition and torn-write accepts.
func TestDecisionShapes(t *testing.T) {
	in := NewInjector(Plan{Rules: []Rule{
		{Op: OpWrite, From: 1, Count: 1, Kind: KindLatency, Latency: 3 * time.Millisecond},
		{Op: OpWrite, From: 1, Count: 1, Kind: KindLatency, Latency: 5 * time.Millisecond},
		{Op: OpWrite, From: 1, Count: 1, Kind: KindTorn, TornBytes: 7},
	}})
	d := in.Eval(Point{Site: "w", Op: OpWrite})
	if d.Latency != 5*time.Millisecond {
		t.Fatalf("latency = %v, want max of composed rules (5ms)", d.Latency)
	}
	if d.Err == nil || d.Accept != 7 {
		t.Fatalf("torn decision = {err %v, accept %d}, want accept 7", d.Err, d.Accept)
	}

	in = NewInjector(Plan{Rules: []Rule{
		{Op: OpWrite, From: 1, Count: 1, Kind: KindTorn},
	}})
	d = in.Eval(Point{Site: "w", Op: OpWrite})
	if d.Err == nil || d.Accept != -1 {
		t.Fatalf("half-tear decision = {err %v, accept %d}, want accept -1", d.Err, d.Accept)
	}
}

// TestNilInjector pins that a nil *Injector evaluates to no-fault, so
// layers can keep an optional injector field unconditionally.
func TestNilInjector(t *testing.T) {
	var in *Injector
	if d := in.Eval(Point{Site: "x", Op: OpTick}); d.Err != nil || d.Latency != 0 {
		t.Fatalf("nil injector decided %+v, want zero", d)
	}
}

// TestPlanJSONRoundTrip pins that a plan survives the artifact path:
// marshal, unmarshal, identical behavior.
func TestPlanJSONRoundTrip(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{{
		Site: "wal", Op: OpWrite, From: 3, Count: 2, Kind: KindTorn,
		Latency: time.Millisecond, TornBytes: 5,
		File: "00000001.wal", ExceptFile: "00000000.wal", Msg: "torn segment",
	}, {
		Site: "gate", Op: OpTick, From: 7, Kind: KindCancel,
	}}}
	raw, err := json.Marshal(plan)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Plan
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(plan, back) {
		t.Fatalf("plan did not round-trip:\n  out %+v\n  in  %+v", plan, back)
	}
}
