package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// stepper is a policy remote-controlled by the enumerator: at every
// decision point it reports the pending transaction ids and waits for
// the controller's choice (-1 stalls the run, abandoning it).
type stepper struct {
	offers  chan []int
	choices chan int
}

func newStepper() *stepper {
	return &stepper{offers: make(chan []int), choices: make(chan int)}
}

// Pick implements Policy.
func (st *stepper) Pick(pending []*Request, v *View) int {
	ids := make([]int, len(pending))
	for i, r := range pending {
		ids[i] = r.TxnID
	}
	st.offers <- ids
	want := <-st.choices
	for i, r := range pending {
		if r.TxnID == want {
			return i
		}
	}
	return -1
}

// TxnFinished implements Policy.
func (st *stepper) TxnFinished(int, *View) {}

// probe replays cfg granting the given prefix, then either reports the
// next decision point's pending transaction ids (options non-nil) or
// the completed run (done non-nil).
func probe(cfg Config, prefix []int) (options []int, done *Result, err error) {
	st := newStepper()
	cfg.Policy = st

	type outcome struct {
		res *Result
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, rerr := RunCtx(context.TODO(), cfg)
		resCh <- outcome{res: res, err: rerr}
	}()

	abandon := func() {
		st.choices <- -1
		<-resCh
	}

	for _, want := range prefix {
		select {
		case ids := <-st.offers:
			if !contains(ids, want) {
				abandon()
				return nil, nil, fmt.Errorf("exec: prefix grant T%d not available among %v", want, ids)
			}
			st.choices <- want
		case out := <-resCh:
			if out.err != nil {
				return nil, nil, out.err
			}
			return nil, nil, errors.New("exec: run completed before the prefix was consumed")
		}
	}

	select {
	case ids := <-st.offers:
		abandon()
		return ids, nil, nil
	case out := <-resCh:
		if out.err != nil {
			return nil, nil, out.err
		}
		return nil, out.res, nil
	}
}

func contains(ids []int, want int) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

// ErrEnumLimit is returned when Enumerate exceeds its interleaving
// budget.
var ErrEnumLimit = errors.New("exec: interleaving limit exceeded")

// Enumerate explores EVERY interleaving of the configured programs
// (cfg.Policy is ignored) and calls visit with each completed run and
// the grant script that produced it. It returns the number of complete
// interleavings visited. Because a program's future operations may
// depend on values it read, the interleaving tree is discovered
// dynamically: each node re-executes the prefix from scratch, so the
// cost is O(paths × depth²) engine steps — use for small systems (this
// is the exhaustive companion to the randomized campaigns).
//
// A non-nil error from visit aborts the enumeration and is returned.
// limit bounds the number of complete interleavings (0 means 10000); on
// overflow ErrEnumLimit is returned.
func Enumerate(cfg Config, limit int, visit func(script []int, res *Result) error) (int, error) {
	if limit <= 0 {
		limit = 10000
	}
	count := 0
	var rec func(prefix []int) error
	rec = func(prefix []int) error {
		options, done, err := probe(cfg, prefix)
		if err != nil {
			return err
		}
		if done != nil {
			count++
			if count > limit {
				return ErrEnumLimit
			}
			return visit(append([]int(nil), prefix...), done)
		}
		sort.Ints(options)
		for _, id := range options {
			if err := rec(append(append([]int(nil), prefix...), id)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(nil); err != nil {
		return count, err
	}
	return count, nil
}
