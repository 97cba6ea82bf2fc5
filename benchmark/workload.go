package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pwsr/internal/constraint"
	"pwsr/internal/program"
	"pwsr/internal/state"
)

// spec fixes one named workload. The tick fields drive exec.RunCtx
// rounds, the batch fields ParallelEngine.ExecuteBatchCtx rounds.
type spec struct {
	name string
	why  string

	// Tick workloads: conjuncts × itemsPer items; each round runs
	// window programs, longTxns of them sweeping longSpan whole
	// conjuncts, the rest touching 1..3 items of one conjunct, with
	// hotPct percent of those forced onto conjunct 0.
	conjuncts, itemsPer int
	window, longTxns    int
	longSpan, hotPct    int
	longPool, shortPool int
	durable             bool

	// Batch workload: writers read-modify-write one private item each
	// after spin loop iterations, hotPct percent of them also
	// incrementing the hot item; readers are declared read-only and
	// scan the hot item plus scan private items.
	batch            bool
	writers, readers int
	spin, scan       int
	itemGroups       int // private items = writers × itemGroups
	readerPool       int

	// segRounds is the number of rounds timed back to back between two
	// off-the-clock verification points (about half a second of work,
	// and at least 200 rounds so a segment's p95 has ten samples past it).
	segRounds int
	// heapRound is the round at or past which heap_live_mb is read: a
	// third of what an undisturbed 2-CPU host does in ten seconds, so a
	// much slower run still reaches it.
	heapRound int
}

// compactEveryRounds is the monitor's compaction cadence in rounds, so
// a run cycles through hundreds of passes.
const compactEveryRounds = 4

// autoCompactEvery is that cadence in commits.
func (s *spec) autoCompactEvery() int {
	if s.batch {
		return compactEveryRounds * s.writers
	}
	return compactEveryRounds * s.window
}

// txnsPerRound is the number of transactions submitted per round.
func (s *spec) txnsPerRound() int {
	if s.batch {
		return s.writers + s.readers
	}
	return s.window
}

var specs = []*spec{
	{
		name: "cad-tick",
		why:  "sparse conflicts on the paper's CAD shape: the tick engine's per-operation round trip dominates and the gate does little",

		conjuncts: 16, itemsPer: 4, window: 12, longTxns: 2, longSpan: 4,
		longPool: 1024, shortPool: 8192, segRounds: 1024, heapRound: 8192,
	},
	{
		name: "hot-tick",
		why:  "dense conflicts, short transactions only: Pick, Victim and Admissible re-probes dominate, so gate and probe-cache changes show here",

		conjuncts: 6, itemsPer: 4, window: 48, hotPct: 20,
		shortPool: 8192, segRounds: 256, heapRound: 768,
	},
	{
		name: "cad-tick-durable",
		why:  "cad-tick's exact program stream behind a group-commit file journal: the difference from cad-tick is the durability tax",

		conjuncts: 16, itemsPer: 4, window: 12, longTxns: 2, longSpan: 4,
		longPool: 1024, shortPool: 8192, segRounds: 256, heapRound: 2048, durable: true,
	},
	{
		name: "batch-rw",
		why:  "reads beside writes on the batch engine: whole-transaction admission on a sharded monitor and snapshot readers, no per-operation hop",

		batch: true, writers: 48, readers: 48, spin: 50, scan: 8, hotPct: 20,
		itemGroups: 16, readerPool: 2048, segRounds: 384, heapRound: 3072,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// workload is one spec instantiated from a seed: the items, the
// constraint, and the pool of parsed program templates rounds draw from.
type workload struct {
	*spec
	seed      int64
	partition []state.ItemSet
	ic        *constraint.IC // nil for the batch workload
	initial   state.DB

	long, short []*program.Program // tick pools
	// Batch pools: writer[item][0|1] increments private item `item`,
	// variant 1 also the hot item; reader[k] is one scan.
	writer  [][2]*program.Program
	reader  []*program.Program
	private []string

	// parseNs is the time spent in program.Parse building the pools.
	parseNs   int64
	templates int
}

const hotItem = "h"

func tickItem(c, j int) string { return fmt.Sprintf("d%dc%d", c, j) }

// newWorkload generates the workload's inputs from the seed. Nothing
// else in a run depends on the seed.
func newWorkload(s *spec, seed int64) (*workload, error) {
	w := &workload{spec: s, seed: seed, initial: state.NewDB()}
	rng := rand.New(rand.NewSource(seed))
	var err error
	if s.batch {
		err = w.buildBatch(rng)
	} else {
		err = w.buildTick(rng)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *workload) parse(src string) (*program.Program, error) {
	t0 := time.Now()
	p, err := program.Parse(src)
	w.parseNs += int64(time.Since(t0))
	w.templates++
	return p, err
}

// fix is one read-modify-write statement that keeps the item positive
// and bounded from any state, so every program preserves its conjunct.
func fix(b *strings.Builder, item string, rng *rand.Rand) {
	fmt.Fprintf(b, "%s := abs(%s) %% 89 + %d;\n", item, item, 1+rng.Intn(3))
}

func (w *workload) buildTick(rng *rand.Rand) error {
	var conj []string
	for c := 0; c < w.conjuncts; c++ {
		var terms []string
		for j := 0; j < w.itemsPer; j++ {
			it := tickItem(c, j)
			terms = append(terms, it+" > 0")
			w.initial.Set(it, state.Int(int64(1+rng.Intn(5))))
		}
		conj = append(conj, strings.Join(terms, " & "))
	}
	ic, err := constraint.ParseICFromConjuncts(conj...)
	if err != nil {
		return err
	}
	w.ic = ic
	w.partition = ic.Partition()

	for k := 0; k < w.longPool; k++ {
		var b strings.Builder
		fmt.Fprintf(&b, "program Long%d {\n", k)
		start := rng.Intn(w.conjuncts - w.longSpan + 1)
		for c := start; c < start+w.longSpan; c++ {
			for j := 0; j < w.itemsPer; j++ {
				fix(&b, tickItem(c, j), rng)
			}
		}
		b.WriteString("}\n")
		p, err := w.parse(b.String())
		if err != nil {
			return err
		}
		w.long = append(w.long, p)
	}
	for k := 0; k < w.shortPool; k++ {
		var b strings.Builder
		fmt.Fprintf(&b, "program Short%d {\n", k)
		c := rng.Intn(w.conjuncts)
		if rng.Intn(100) < w.hotPct {
			c = 0
		}
		n := 1 + rng.Intn(3)
		for i, j := range rng.Perm(w.itemsPer)[:n] {
			if rng.Intn(10) < 3 {
				fmt.Fprintf(&b, "let q%d := %s;\n", i, tickItem(c, j)) // a query
			} else {
				fix(&b, tickItem(c, j), rng)
			}
		}
		b.WriteString("}\n")
		p, err := w.parse(b.String())
		if err != nil {
			return err
		}
		w.short = append(w.short, p)
	}
	return nil
}

func (w *workload) buildBatch(rng *rand.Rand) error {
	const privateConjuncts = 8
	w.partition = make([]state.ItemSet, privateConjuncts, privateConjuncts+1)
	for i := range w.partition {
		w.partition[i] = state.NewItemSet()
	}
	n := w.writers * w.itemGroups
	for i := 0; i < n; i++ {
		item := fmt.Sprintf("x%d", i)
		w.private = append(w.private, item)
		w.partition[i%privateConjuncts].Add(item)
		w.initial.Set(item, state.Int(int64(i)))
	}
	w.initial.Set(hotItem, state.Int(0))
	w.partition = append(w.partition, state.NewItemSet(hotItem))

	w.writer = make([][2]*program.Program, n)
	for i, item := range w.private {
		for hot := 0; hot < 2; hot++ {
			tail := ""
			if hot == 1 {
				tail = fmt.Sprintf("  %s := %s + 1;\n", hotItem, hotItem)
			}
			p, err := w.parse(fmt.Sprintf(
				"program W%d_%d {\n  let v := %s;\n  let spin := %d;\n  while (spin > 0) { spin := spin - 1; }\n  %s := v + 1;\n%s}\n",
				i, hot, item, w.spin, item, tail))
			if err != nil {
				return err
			}
			w.writer[i][hot] = p
		}
	}
	for k := 0; k < w.readerPool; k++ {
		var b strings.Builder
		fmt.Fprintf(&b, "program R%d {\n  let a := %s;\n", k, hotItem)
		for i, j := range rng.Perm(n)[:w.scan] {
			fmt.Fprintf(&b, "  let v%d := %s;\n", i, w.private[j])
		}
		b.WriteString("}\n")
		p, err := w.parse(b.String())
		if err != nil {
			return err
		}
		w.reader = append(w.reader, p)
	}
	return nil
}

// draw is a stateless hash of (seed, round, slot), so any pass can
// regenerate any round without replaying the ones before it.
func (w *workload) draw(round, slot int) uint64 {
	z := uint64(w.seed)*0x9E3779B97F4A7C15 + uint64(round)*0xBF58476D1CE4E5B9 + uint64(slot)*0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// roundInput is one round's programs under fresh transaction ids.
type roundInput struct {
	programs map[int]*program.Program
	// Batch rounds only: the private item each writer increments and
	// how many writers also increment the hot item (the oracle's input).
	items []int
	hot   int
}

// readerID is the reserved id of reader slot j. ParallelConfig.ReadOnly
// is fixed when the engine is built, so a persistent engine cannot be
// told about fresh reader ids per batch; readers reuse this block and
// only the read-write ids ascend.
func readerID(j int) int { return 1 + j }

// input builds round r. Read-write ids ascend globally across rounds.
func (w *workload) input(r int) roundInput {
	in := roundInput{programs: make(map[int]*program.Program, w.txnsPerRound())}
	if !w.batch {
		base := 1 + r*w.window
		for j := 0; j < w.window; j++ {
			h := w.draw(r, j)
			if j < w.longTxns {
				in.programs[base+j] = w.long[h%uint64(len(w.long))]
			} else {
				in.programs[base+j] = w.short[h%uint64(len(w.short))]
			}
		}
		return in
	}
	base := 1 + w.readers + r*w.writers
	in.items = make([]int, w.writers)
	for j := 0; j < w.writers; j++ {
		h := w.draw(r, j)
		item := j*w.itemGroups + int(h%uint64(w.itemGroups)) // distinct per slot
		hot := 0
		if int((h>>32)%100) < w.hotPct {
			hot = 1
		}
		in.items[j] = item
		in.hot += hot
		in.programs[base+j] = w.writer[item][hot]
	}
	for j := 0; j < w.readers; j++ {
		h := w.draw(r, w.writers+j)
		in.programs[readerID(j)] = w.reader[h%uint64(len(w.reader))]
	}
	return in
}
