package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/program"
	"pwsr/internal/wal"
)

// options configures one run of one workload.
type options struct {
	seed int64
	// seconds is the timed-wall budget: the run ends at the first
	// segment boundary at or past it. rounds > 0 overrides it with an
	// exact round count, so that counts repeat exactly.
	seconds float64
	rounds  int
	// trace adds the traced pass and the per-layer metrics.
	trace bool
	// dir holds the journal directories and the trace file.
	dir string
	// setups is how many times set-up is timed; the median is reported.
	setups int
}

// result is one run's record, as written to the -out file.
type result struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Rounds       int                `json:"rounds"`
	Segments     int                `json:"segments"`
	TimedSeconds float64            `json:"timed_seconds"`
	HeapRounds   int                `json:"heap_rounds"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Errors       []string           `json:"errors,omitempty"`
	EndToEnd     map[string]float64 `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	Counts       counts             `json:"counts"`
	TraceFile    string             `json:"trace_file,omitempty"`
}

// recoveryReps is how many times the crash image is recovered; the
// median is reported.
const recoveryReps = 21

// passStats is what one pass over a sequence of rounds measured.
type passStats struct {
	roundNs   []float64 // one per round, in order
	segs      []segment
	timedNs   int64
	attempted int
	roundErr  error

	allocBytes, mallocs uint64
	gcCycles            uint32

	// Tallies over every result (cheap, both passes).
	c                  counts
	retries, conflicts int
	roTxns, roOps      int
	waits              int
	// turnaround[t] counts transactions that took t ticks (the last
	// bucket also takes everything longer): fixed memory, so the
	// benchmark's own samples do not grow the heap it measures.
	turnaround [4096]int
}

// segment is one stretch of rounds timed back to back.
type segment struct {
	rounds, txns int    // completed in the segment
	ns           int64  // its wall time
	end          counts // cumulative counts at its end
}

// verifier runs the output checks off the clock and keeps what the
// verification-only metrics need.
type verifier struct {
	w        *workload
	errs     []string
	checkNs  int64
	checkOps int
	icNs     int64
	icEvals  int
	wallNs   int64
	// Batch oracle: writes per private item and hot increments.
	itemWrites []int
	hotWrites  int
}

func (v *verifier) fail(format string, args ...any) {
	if len(v.errs) < 20 {
		v.errs = append(v.errs, fmt.Sprintf(format, args...))
	}
}

// round checks one round's outputs: the schedule is PWSR against the
// partition and, where the workload has a constraint, the final state
// satisfies it (the paper's theorem, observed).
func (v *verifier) round(r int, in roundInput, res *exec.Result) {
	t0 := time.Now()
	rep := core.CheckPWSR(res.Schedule, v.w.partition)
	v.checkNs += int64(time.Since(t0))
	v.checkOps += res.Schedule.Len()
	if !rep.PWSR {
		v.fail("round %d: schedule is not PWSR: %v", r, rep)
	}
	if v.w.ic != nil {
		t1 := time.Now()
		ok, err := v.w.ic.Eval(res.Final)
		v.icNs += int64(time.Since(t1))
		v.icEvals++
		if err != nil || !ok {
			v.fail("round %d: final state violates the constraint (err=%v)", r, err)
		}
	}
	if v.w.batch {
		if got, want := res.Metrics.ROTxns, v.w.readers; got != want {
			v.fail("round %d: %d of %d declared readers served from a snapshot", r, got, want)
		}
		if got, want := res.Metrics.ROOps, v.w.readers*(1+v.w.scan); got != want {
			v.fail("round %d: readers performed %d snapshot reads, want %d", r, got, want)
		}
		for _, item := range in.items {
			v.itemWrites[item]++
		}
		v.hotWrites += in.hot
	}
}

// nextSegment decides the length of the next segment given the rounds
// done and the timed wall so far; 0 ends the pass.
type nextSegment func(done int, timedNs int64) int

// pass drives p through segments of rounds issued back to back. Between
// segments, off the clock, it tallies and (with v) verifies the results,
// drops them and forces a collection, so that every segment starts from
// a settled heap and the retained results never count as live heap.
// atBoundary, if set, runs at each segment end right after that
// collection, with the rounds done so far.
func pass(p *pipeline, next nextSegment, v *verifier, atBoundary func(seg, done int) error) (*passStats, error) {
	ctx := context.Background()
	st := &passStats{}
	w := p.w
	var m0, m1 runtime.MemStats
	for done := 0; ; {
		n := next(done, st.timedNs)
		if n <= 0 {
			break
		}
		inputs := make([]roundInput, n)
		for i := range inputs {
			inputs[i] = w.input(done + i)
		}
		results := make([]*exec.Result, 0, n)
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			res, err := p.round(ctx, done+i, inputs[i])
			st.roundNs = append(st.roundNs, float64(time.Since(s)))
			st.attempted += w.txnsPerRound()
			if err != nil {
				// The round's transactions all count as failed and the
				// pipeline's state past it is not to be trusted: stop.
				st.roundErr = fmt.Errorf("round %d: %w", done+i, err)
				st.roundNs = st.roundNs[:len(st.roundNs)-1]
				break
			}
			results = append(results, res)
		}
		segNs := int64(time.Since(t0))
		runtime.ReadMemStats(&m1)
		st.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		st.mallocs += m1.Mallocs - m0.Mallocs
		st.gcCycles += m1.NumGC - m0.NumGC

		txns := 0
		t1 := time.Now()
		for i, res := range results {
			txns += len(inputs[i].programs)
			st.tally(w, res)
			if v != nil {
				v.round(done+i, inputs[i], res)
			}
		}
		if v != nil {
			v.wallNs += int64(time.Since(t1))
		}
		done += len(results)
		st.c.Rounds = done
		st.c.Committed += txns
		p.snapshotCounts(&st.c)
		st.timedNs += segNs
		st.segs = append(st.segs, segment{rounds: len(results), txns: txns, ns: segNs, end: st.c})
		if st.roundErr != nil {
			break
		}
		results, inputs = nil, nil
		runtime.GC()
		if atBoundary != nil {
			if err := atBoundary(len(st.segs)-1, done); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

func (st *passStats) tally(w *workload, res *exec.Result) {
	m := &res.Metrics
	st.c.GrantedOps += m.Ticks
	st.c.Aborts += m.Aborts
	st.c.WastedOps += m.WastedOps
	st.retries += m.Retries
	st.conflicts += m.Conflicts
	st.roTxns += m.ROTxns
	st.roOps += m.ROOps
	if !w.batch {
		st.waits += m.Waits
		for _, tm := range m.PerTxn {
			st.turnaround[min(max(tm.Turnaround(), 0), len(st.turnaround)-1)]++
		}
	}
}

// turnaroundP50 is the median transaction turnaround in ticks.
func (st *passStats) turnaroundP50() int {
	total := 0
	for _, n := range st.turnaround {
		total += n
	}
	seen := 0
	for t, n := range st.turnaround {
		if seen += n; 2*seen >= total {
			return t
		}
	}
	return 0
}

// setup builds the workload and its pipeline, the work a user pays
// before the first round.
func setup(s *spec, seed int64, dir string) (*workload, *pipeline, error) {
	w, err := newWorkload(s, seed)
	if err != nil {
		return nil, nil, err
	}
	p, err := newPipeline(w, nil, dir)
	if err != nil {
		return nil, nil, err
	}
	return w, p, nil
}

// crashCut is the crash image taken mid-run and the last sequence
// number the journal had logged when it was taken.
type crashCut struct {
	image  map[string][]byte
	logged uint64
}

// run measures one workload: timed set-up, the untraced pass with its
// output checks, and with opt.trace the traced pass over the first
// tenth of the same rounds.
func run(s *spec, opt options) (*result, error) {
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	segRounds := s.segRounds
	if opt.rounds > 0 && opt.rounds < segRounds {
		return nil, fmt.Errorf("%s: -rounds %d is less than one segment of %d rounds", s.name, opt.rounds, segRounds)
	}
	res := &result{Workload: s.name, Seed: opt.seed, EndToEnd: map[string]float64{}}

	// Set-up, timed several times; the last pipeline is the one measured.
	var w *workload
	var p *pipeline
	var setupS []float64
	for i := 0; i < max(opt.setups, 1); i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, p, err = setup(s, opt.seed, opt.dir); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() { p.close() }()
	res.EndToEnd["setup_s"] = median(setupS)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapSetup := float64(ms.HeapAlloc) / (1 << 20)

	// The first segment ends at a seeded round in the second half of a
	// full segment: that is where the durable workload's crash image is
	// cut. The second segment makes up the difference, so every later
	// boundary is a multiple of segRounds whatever the seed.
	firstSeg := segRounds/2 + int(w.draw(-1, 0)%uint64(segRounds-segRounds/2))
	// A round that ends with a compaction pass has reclaimed everything,
	// and every fourth pass cuts a snapshot: a crash right there leaves
	// an empty snapshot and nothing to replay. Cut halfway between two
	// passes instead.
	firstSeg += compactEveryRounds/2 - firstSeg%compactEveryRounds
	budget := int64(opt.seconds * 1e9)
	next := func(done int, timedNs int64) int {
		n := segRounds
		switch done {
		case 0:
			n = firstSeg
		case firstSeg:
			n = 2*segRounds - firstSeg
		}
		if opt.rounds > 0 {
			return min(n, opt.rounds-done)
		}
		if timedNs >= budget {
			return 0
		}
		return n
	}

	v := &verifier{w: w}
	if w.batch {
		v.itemWrites = make([]int, len(w.private))
	}
	var cut *crashCut
	heapRounds := 0
	atBoundary := func(seg, done int) error {
		// Live heap right after the boundary's forced collection: the
		// segment's results are gone, the monitor, store and journal
		// mirror are still referenced. The reading that counts is the
		// one at the first boundary at or past heapRound, a fixed point
		// in the round sequence, so that it does not depend on how many
		// rounds the machine got through in the time budget; a run that
		// ends before it keeps its last reading.
		if heapRounds < s.heapRound {
			runtime.ReadMemStats(&ms)
			res.EndToEnd["heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
			heapRounds = done
		}
		if seg == 0 && w.durable {
			image, err := p.backend.crashImage()
			if err != nil {
				return err
			}
			cut = &crashCut{image: image, logged: p.journal.Seq()}
		}
		return nil
	}
	st, err := pass(p, next, v, atBoundary)
	if err != nil {
		return nil, err
	}
	res.HeapRounds = heapRounds

	res.Rounds = st.c.Rounds
	res.Segments = len(st.segs)
	res.TimedSeconds = float64(st.timedNs) / 1e9
	res.Counts = st.c
	res.Attempted = st.attempted
	res.Failed = st.attempted - st.c.Committed
	if st.roundErr != nil {
		v.fail("%v", st.roundErr)
	}
	endToEnd(res, st)

	// Whole-run output checks.
	if !p.mon.PWSR() {
		v.fail("live monitor ended with a violation: %v", p.mon.Violation())
	}
	if w.batch {
		v.checkOracle(p)
	}
	var rec *recovery
	if w.durable && st.roundErr == nil {
		if rec, err = v.checkDurable(p, cut); err != nil {
			return nil, err
		}
	}

	if opt.trace && st.roundErr == nil {
		res.PerLayer = map[string]float64{}
		if err := tracedPass(res, w, st, v, opt); err != nil {
			return nil, err
		}
		wholeRunLayers(res, p, st, v, rec, heapSetup)
	}
	res.Errors = v.errs
	res.Correct = len(v.errs) == 0
	return res, nil
}

// endToEnd fills the user-visible metrics from the untraced pass. Each
// is computed per segment and reported as the median over segments, so
// that a burst of interference from the sandbox, which disturbs a few
// segments, moves none of them.
func endToEnd(res *result, st *passStats) {
	var rate, p50, p95 []float64
	first := 0
	for _, sg := range st.segs {
		if sg.rounds == 0 {
			continue // the segment's first round failed
		}
		rate = append(rate, float64(sg.txns)/(float64(sg.ns)/1e9))
		sorted := append([]float64(nil), st.roundNs[first:first+sg.rounds]...)
		sort.Float64s(sorted)
		p50 = append(p50, percentile(sorted, 0.50)/1e6)
		p95 = append(p95, percentile(sorted, 0.95)/1e6)
		first += sg.rounds
	}
	res.EndToEnd["committed_txn_per_s"] = median(rate)
	res.EndToEnd["round_p50_ms"] = median(p50)
	res.EndToEnd["round_p95_ms"] = median(p95)
}

// checkOracle compares the batch workload's final store with the
// generator's arithmetic: every private item grew by its write count,
// the hot item by the number of hot writers.
func (v *verifier) checkOracle(p *pipeline) {
	final := p.engine.Store().Snapshot()
	for i, item := range v.w.private {
		want := v.w.initial.MustGet(item).AsInt() + int64(v.itemWrites[i])
		if got := final.MustGet(item).AsInt(); got != want {
			v.fail("item %s = %d, oracle says %d", item, got, want)
		}
	}
	if got := final.MustGet(hotItem).AsInt(); got != int64(v.hotWrites) {
		v.fail("hot item = %d, oracle says %d", got, v.hotWrites)
	}
}

// recovery is what recovering the crash image measured.
type recovery struct {
	medianMs float64
	replayed int
	lag      uint64
}

// checkDurable closes the journal cleanly and requires recovery to
// rebuild the live monitor's verdict state, then recovers the mid-run
// crash image recoveryReps times.
func (v *verifier) checkDurable(p *pipeline, cut *crashCut) (*recovery, error) {
	if err := p.journal.Close(); err != nil {
		return nil, fmt.Errorf("close journal: %w", err)
	}
	p.journal = nil
	mon, _, err := wal.Recover(p.files, v.w.partition)
	if err != nil {
		v.fail("recovery after a clean close: %v", err)
	} else if mon.PWSR() != p.mon.PWSR() || mon.Ops() != p.mon.Ops() || mon.CompactStats() != p.mon.CompactStats() {
		v.fail("recovered monitor differs from the live one: PWSR %v/%v ops %d/%d compact %+v/%+v",
			mon.PWSR(), p.mon.PWSR(), mon.Ops(), p.mon.Ops(), mon.CompactStats(), p.mon.CompactStats())
	}
	if cut == nil {
		v.fail("no crash image was cut")
		return nil, nil
	}
	rec := &recovery{}
	var ms []float64
	for i := 0; i < recoveryReps; i++ {
		mb := restore(cut.image)
		t0 := time.Now()
		_, jw, info, err := wal.Resume(mb, v.w.partition, journalOptions)
		ms = append(ms, float64(time.Since(t0))/1e6)
		if err != nil {
			v.fail("recovery from the crash image: %v", err)
			return rec, nil
		}
		jw.Close()
		rec.replayed = info.SnapshotEvents + info.Replayed
		rec.lag = cut.logged - info.LastSeq
	}
	rec.medianMs = median(ms)
	if rec.replayed == 0 {
		v.fail("recovery from the crash image replayed no events")
	}
	if rec.lag > uint64(journalOptions.GroupEvery-1) {
		v.fail("crash image lost %d records, group commit allows %d", rec.lag, journalOptions.GroupEvery-1)
	}
	return rec, nil
}

// tracedPass replays the first tenth of the untraced pass's segments on
// a fresh, fully wrapped pipeline and derives the per-layer metrics.
func tracedPass(res *result, w *workload, st *passStats, v *verifier, opt options) error {
	k := max(1, len(st.segs)/10)
	tr := newTracer()
	p, err := newPipeline(w, tr, opt.dir)
	if err != nil {
		return err
	}
	defer p.close()
	seg := 0
	next := func(int, int64) int {
		if seg == k {
			return 0
		}
		seg++
		return st.segs[seg-1].rounds
	}
	ts, err := pass(p, next, nil, nil)
	if err != nil {
		return err
	}
	if ts.roundErr != nil {
		v.fail("traced pass: %v", ts.roundErr)
		return nil
	}
	want, got := st.segs[k-1].end, ts.c
	if w.batch {
		want, got = want.batchEqual(), got.batchEqual()
	}
	if want != got {
		v.fail("tracing changed a decision: untraced prefix %+v, traced %+v", want, got)
	}
	var untracedNs int64
	for _, sg := range st.segs[:k] {
		untracedNs += sg.ns
	}
	tracedLayers(res, p, ts, untracedNs)

	res.TraceFile = filepath.Join(opt.dir, "trace-"+w.name+".csv")
	return tr.writeFile(res.TraceFile, w.name, w.seed)
}

// tracedLayers fills the metrics that come from spans: per-call self
// times, call counts over the traced prefix, and each layer's share of
// the traced wall.
func tracedLayers(res *result, p *pipeline, ts *passStats, untracedNs int64) {
	m, tr := res.PerLayer, p.tr
	wall := float64(ts.timedNs)
	ops := float64(ts.c.GrantedOps)
	a := func(n spanName) spanAgg { return tr.agg[n] }
	self := func(n spanName) float64 { return ratio(float64(a(n).self), float64(a(n).calls)) }
	total := func(n spanName) float64 { return ratio(float64(a(n).total), float64(a(n).calls)) }
	calls := func(n spanName) float64 { return float64(a(n).calls) }
	share := func(l layer) float64 { return 100 * ratio(float64(tr.layerSelf(l)), wall) }

	m["benchmark.trace_overhead_pct"] = 100 * (ratio(wall, float64(untracedNs)) - 1)
	m["benchmark.traced_rounds"] = float64(ts.c.Rounds)
	m["benchmark.spans"] = float64(tr.total)

	m["exec.self_share_pct"] = share(layerExec)
	m["sched.self_share_pct"] = share(layerSched)
	m["core.self_share_pct"] = share(layerCore)
	m["wal.self_share_pct"] = share(layerWAL)
	if p.w.batch {
		m["exec.batch_self_ns_per_txn"] = ratio(float64(a(spRound).self), float64(ts.c.Committed))
	} else {
		m["exec.self_ns_per_op"] = ratio(float64(a(spRound).self), ops)
	}

	m["sched.pick_calls"] = calls(spPick)
	m["sched.pick_self_ns"] = self(spPick)
	m["sched.picks_per_op"] = ratio(calls(spPick), ops)
	m["sched.pending_per_pick"] = ratio(float64(p.tgate.pending), calls(spPick))
	m["sched.victim_calls"] = calls(spVictim)
	m["sched.victim_self_ns"] = self(spVictim)
	m["sched.txn_finished_self_ns"] = self(spTxnFinished)
	m["sched.txn_aborted_self_ns"] = self(spTxnAborted)
	m["sched.admit_txn_calls"] = calls(spAdmitTxn)
	m["sched.admit_txn_self_ns"] = self(spAdmitTxn)
	m["sched.admit_txn_share_pct"] = 100 * ratio(float64(a(spAdmitTxn).total), wall)
	m["sched.denied_admit_ratio"] = ratio(float64(p.tgate.denied), calls(spAdmitTxn))

	m["core.admissible_calls"] = calls(spAdmissible)
	m["core.admissible_ns"] = self(spAdmissible)
	m["core.probes_per_op"] = ratio(calls(spAdmissible), ops)
	m["core.admissible_denied_ratio"] = ratio(float64(p.tmon.denied), calls(spAdmissible))
	m["core.observe_calls"] = calls(spObserve)
	m["core.observe_ns"] = self(spObserve)
	m["core.retract_calls"] = calls(spRetract)
	m["core.retract_ns"] = self(spRetract)
	m["core.commit_ns"] = self(spCommit)
	m["core.admit_sequence_calls"] = calls(spAdmitSequence)
	m["core.admit_sequence_ns"] = self(spAdmitSequence)

	logCalls := calls(spLogObserve) + calls(spLogCommit) + calls(spLogRetract)
	logSelf := float64(a(spLogObserve).self + a(spLogCommit).self + a(spLogRetract).self)
	m["wal.append_self_ns"] = ratio(logSelf, logCalls)
	m["wal.barrier_calls"] = calls(spBarrier)
	m["wal.barrier_ns"] = total(spBarrier)
	m["wal.log_compact_ns"] = total(spLogCompact)
	m["wal.backend_sync_ns"] = total(spBackendSync)
	syncs := make([]float64, len(tr.syncNs))
	for i, ns := range tr.syncNs {
		syncs[i] = float64(ns)
	}
	sort.Float64s(syncs)
	m["wal.backend_sync_p99_us"] = percentile(syncs, 0.99) / 1e3
}

// wholeRunLayers fills the per-layer metrics that come from the
// untraced pass, the layers' own counters and the verification.
func wholeRunLayers(res *result, p *pipeline, st *passStats, v *verifier, rec *recovery, heapSetup float64) {
	m, w, c := res.PerLayer, p.w, st.c
	ops := float64(c.GrantedOps)
	txns := float64(c.Committed)

	m["failed_txn_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	m["benchmark.verify_s"] = float64(v.wallNs) / 1e9
	m["benchmark.heap_setup_mb"] = heapSetup
	m["program.templates"] = float64(w.templates)
	m["program.parse_ns_per_template"] = ratio(float64(w.parseNs), float64(w.templates))
	m["program.isolation_ns_per_op"] = isolationFloor(w)
	m["constraint.ic_eval_ns"] = ratio(float64(v.icNs), float64(v.icEvals))
	m["core.check_ns_per_op"] = ratio(float64(v.checkNs), float64(v.checkOps))

	sorted := append([]float64(nil), st.roundNs...)
	sort.Float64s(sorted)
	m["exec.rounds"] = float64(c.Rounds)
	m["exec.granted_ops"] = ops
	m["exec.round_p99_ms"] = percentile(sorted, 0.99) / 1e6
	m["exec.round_p999_ms"] = percentile(sorted, 0.999) / 1e6
	m["exec.alloc_bytes_per_op"] = ratio(float64(st.allocBytes), ops)
	m["exec.allocs_per_op"] = ratio(float64(st.mallocs), ops)
	m["exec.gc_cycles"] = float64(st.gcCycles)
	if w.batch {
		writers := txns - float64(st.roTxns)
		m["exec.retries_per_txn"] = ratio(float64(st.retries), writers)
		m["exec.validation_fail_ratio"] = ratio(float64(st.conflicts), writers+float64(st.retries))
		m["exec.ro_txn_share"] = ratio(float64(st.roTxns), txns)
		m["exec.ro_ops"] = float64(st.roOps)
		vs := p.engine.Store().VersionStats()
		m["exec.vstore_versions_end"] = float64(vs.Versions)
		m["exec.vstore_pruned"] = float64(vs.Pruned)
		m["exec.vstore_floor_lag"] = float64(vs.Stamp - vs.Floor)
	} else {
		m["exec.aborts_per_txn"] = ratio(float64(c.Aborts), txns)
		m["exec.wasted_op_ratio"] = ratio(float64(c.WastedOps), ops)
		m["exec.wait_ticks_per_txn"] = ratio(float64(st.waits), txns)
		m["exec.turnaround_ticks_p50"] = float64(st.turnaroundP50())
	}

	probes := float64(c.ProbeHits + c.ProbeMisses + c.ProbeInvalid)
	m["core.probe_hit_ratio"] = ratio(float64(c.ProbeHits), probes)
	m["core.probe_invalidations"] = float64(c.ProbeInvalid)
	m["core.compact_passes"] = float64(c.Compactions)
	m["core.reclaimed_txns"] = float64(c.ReclaimedTxns)
	m["core.live_txns_end"] = float64(p.mon.CompactStats().LiveTxns)

	m["wal.records"] = float64(c.LogRecords)
	m["wal.records_per_op"] = ratio(float64(c.LogRecords), ops)
	m["wal.snapshots"] = float64(c.Snapshots)
	m["wal.bytes_per_record"] = ratio(float64(c.LogBytes), float64(c.LogRecords))
	m["wal.retries"] = float64(c.LogRetries)
	if w.durable {
		m["log_bytes_per_op"] = ratio(float64(p.backend.writeBytes), ops)
		m["wal.backend_writes"] = float64(p.backend.writes)
		m["wal.backend_write_bytes_mean"] = ratio(float64(p.backend.writeBytes), float64(p.backend.writes))
		m["wal.backend_syncs"] = float64(p.backend.syncs)
		m["wal.records_per_sync"] = ratio(float64(c.LogRecords), float64(p.backend.syncs))
	}
	if rec != nil {
		m["recovery_ms"] = rec.medianMs
		m["wal.recovery_replayed_events"] = float64(rec.replayed)
		m["wal.recover_ns_per_event"] = ratio(rec.medianMs*1e6, float64(rec.replayed))
		m["wal.durability_lag_records"] = float64(rec.lag)
	}
	// Every per-layer metric is reported on every workload; the ones
	// that do not apply read 0.
	for _, d := range perLayerMetrics {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}

// isolationFloor runs every template alone against the initial state:
// the pure interpretation cost per operation, the floor inside the
// engines' self time.
func isolationFloor(w *workload) float64 {
	in := program.NewInterp()
	var pool []*program.Program
	pool = append(pool, w.long...)
	pool = append(pool, w.short...)
	pool = append(pool, w.reader...)
	for _, pair := range w.writer {
		pool = append(pool, pair[0], pair[1])
	}
	var ns int64
	ops := 0
	for _, p := range pool {
		t0 := time.Now()
		t, _, err := in.RunInIsolation(p, w.initial, 1)
		ns += int64(time.Since(t0))
		if err == nil {
			ops += len(t.Ops)
		}
	}
	return ratio(float64(ns), float64(ops))
}
