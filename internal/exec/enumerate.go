package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
)

// enumFrame is one decision point on the enumerator's current path: the
// pending transaction ids there, sorted, and the index of the one taken.
type enumFrame struct {
	options []int
	taken   int
}

// enumPolicy drives one run down the enumerator's path: at decision
// point d it grants path[d]'s taken id while the path lasts, and past
// its end takes the lowest pending id, recording the sorted options as
// a new frame — so every run ends at a leaf.
type enumPolicy struct {
	path  []enumFrame
	depth int
	err   error
}

// Pick implements Policy.
func (p *enumPolicy) Pick(pending []*Request, v *View) int {
	if p.depth == len(p.path) {
		options := make([]int, len(pending))
		for i, r := range pending {
			options[i] = r.TxnID
		}
		slices.Sort(options)
		p.path = append(p.path, enumFrame{options: options})
	}
	f := p.path[p.depth]
	want := f.options[f.taken]
	p.depth++
	for i, r := range pending {
		if r.TxnID == want {
			return i
		}
	}
	p.err = fmt.Errorf("exec: prefix grant T%d not available among %d pending", want, len(pending))
	return -1
}

// TxnFinished implements Policy.
func (p *enumPolicy) TxnFinished(int, *View) {}

// ErrEnumLimit is returned when Enumerate exceeds its interleaving
// budget.
var ErrEnumLimit = errors.New("exec: interleaving limit exceeded")

// Enumerate explores EVERY interleaving of the configured programs
// (cfg.Policy is ignored) and calls visit with each completed run and
// the grant script that produced it, in ascending script order. It
// returns the number of complete interleavings visited. Because a
// program's future operations may depend on values it read, the
// interleaving tree is discovered dynamically: each run replays a
// prefix from scratch and then descends to a leaf along the lowest
// pending ids, and the next prefix is the deepest untried sibling — one
// engine run per leaf, so the cost is O(leaves × depth) engine steps
// (use for small systems: this is the exhaustive companion to the
// randomized campaigns).
//
// A non-nil error from visit aborts the enumeration and is returned.
// limit bounds the number of complete interleavings (0 means 10000); on
// overflow ErrEnumLimit is returned.
func Enumerate(cfg Config, limit int, visit func(script []int, res *Result) error) (int, error) {
	if limit <= 0 {
		limit = 10000
	}
	var path []enumFrame
	for count := 1; ; count++ {
		p := &enumPolicy{path: path}
		cfg.Policy = p
		res, err := RunCtx(context.Background(), cfg)
		if p.err != nil {
			return count - 1, p.err
		}
		if err != nil {
			return count - 1, err
		}
		if count > limit {
			return count, ErrEnumLimit
		}
		path = p.path[:p.depth]
		script := make([]int, len(path))
		for d, f := range path {
			script[d] = f.options[f.taken]
		}
		if err := visit(script, res); err != nil {
			return count, err
		}
		for len(path) > 0 && path[len(path)-1].taken == len(path[len(path)-1].options)-1 {
			path = path[:len(path)-1]
		}
		if len(path) == 0 {
			return count, nil
		}
		path[len(path)-1].taken++
	}
}
