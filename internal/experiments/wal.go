package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/sim"
	"pwsr/internal/state"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// WalRecord is one pass of the PERF9 durability study, in the
// machine-readable shape cmd/pwsrbench writes to BENCH_wal.json: the
// same certified admission stream run with no journal (baseline) and
// with write-ahead logging across backends and group-commit windows,
// plus a recovery of each written log.
type WalRecord struct {
	// Variant names the pass: "no-journal", "mem-g<N>", or "file-g<N>"
	// (N = the group-commit window, in commit records).
	Variant string `json:"variant"`
	// Ops is the number of admitted operations (identical across
	// passes — journaling never changes a decision; the study
	// re-checks this).
	Ops int `json:"ops"`
	// Events is the full lifecycle stream length (observes + commits +
	// retracts + compacts).
	Events int64 `json:"events"`
	// WallNs is the pass's wall-clock time; NsPerOp normalizes by the
	// admitted operations; Overhead is NsPerOp over the no-journal
	// baseline's.
	WallNs   int64   `json:"wall_ns"`
	NsPerOp  float64 `json:"ns_per_op"`
	Overhead float64 `json:"overhead"`
	// Durability counters (zero for the no-journal baseline).
	LogBytes  int64 `json:"log_bytes"`
	Fsyncs    int64 `json:"fsyncs"`
	Snapshots int64 `json:"snapshots"`
	// Recovery cost for the written log: wall time, events replayed
	// (snapshot section + suffix), and the durable prefix's last
	// sequence number.
	RecoveryNs      int64  `json:"recovery_ns"`
	RecoveryReplays int    `json:"recovery_replays"`
	RecoveredSeq    uint64 `json:"recovered_seq"`
}

// walOutcome summarizes a pass's decision trace; compared across
// passes to certify that journaling changed no admission decision.
type walOutcome struct {
	ops     int
	commits int
	denied  int64
}

// walPass drives a gated admission stream through a monitor with the
// given lifecycle sink attached: window transaction slots, each step
// probing Admissible before observing (the certification gates'
// write-ahead flow), commits recycling slots, and a compaction pass —
// the snapshot-cut trigger — every compactEvery steps.
func walPass(m *core.Monitor, sink core.LifecycleSink, steps, window, compactEvery int, partition []state.ItemSet, items []string, seed int64) (walOutcome, time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	m.SetAutoCompact(0)
	m.SetSink(sink)
	defer m.SetSink(nil)
	const lifetime = 10
	ids := make([]int, window)
	budget := make([]int, window)
	nextID := 1
	for i := range ids {
		ids[i], budget[i] = nextID, lifetime
		nextID++
	}
	var out walOutcome
	start := time.Now()
	for step := 0; step < steps; step++ {
		if compactEvery > 0 && step > 0 && step%compactEvery == 0 {
			// Epoch boundary: drain the window before compacting.
			// Overlapping windows keep every committed transaction
			// anchored to a live ancestor (nothing is ever reclaimed and
			// the surviving stream grows without bound); a quiescent
			// point lets the pass reclaim the finished epoch, so the
			// snapshot cut stays small and recovery replays the suffix,
			// not the history.
			for i := range ids {
				if budget[i] < lifetime {
					m.Commit(ids[i])
					out.commits++
				}
				ids[i], budget[i] = nextID, lifetime
				nextID++
			}
			m.Compact()
		}
		i := step % window
		o := txn.W(ids[i], items[rng.Intn(len(items))], 0)
		if rng.Intn(2) == 0 {
			o = txn.R(ids[i], o.Entity, 0)
		}
		if !m.Admissible(o) {
			out.denied++
			continue
		}
		m.Observe(o)
		out.ops++
		budget[i]--
		if budget[i] <= 0 {
			m.Commit(ids[i])
			out.commits++
			ids[i], budget[i] = nextID, lifetime
			nextID++
		}
	}
	return out, time.Since(start)
}

// WalStudy is the PERF9 experiment: the certified admission stream of
// walPass with no journal, then journaled to the in-memory and file
// backends across group-commit windows, measuring the write-ahead
// overhead per admitted operation and the cost of recovering each
// written log. It returns the rendered table plus the machine-readable
// records, and errors out if any journaled pass admitted differently
// than the baseline (the journal is an observer; decisions never
// move) or any recovery disagreed with the live monitor's verdict
// state.
func WalStudy(steps int, seed int64) (*sim.Table, []WalRecord, error) {
	const conjuncts, itemsPer, window = 4, 4, 12
	// Compaction cadence scales with the pass length so reduced-stream
	// variants still exercise snapshot cuts; keyed off the step count,
	// so a journaled pass and its baseline always agree.
	compactCadence := func(n int) int {
		if ce := n / 60; ce > 25 {
			return ce
		}
		return 25
	}
	partition := make([]state.ItemSet, conjuncts)
	var items []string
	for c := range partition {
		partition[c] = state.NewItemSet()
		for i := 0; i < itemsPer; i++ {
			name := fmt.Sprintf("c%d_x%d", c, i)
			partition[c].Add(name)
			items = append(items, name)
		}
	}

	dir, err := os.MkdirTemp("", "pwsr-walstudy-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	type variant struct {
		name  string
		group int
		steps int                              // 0 = the full step count
		mk    func(i int) (wal.Backend, error) // nil = no journal
	}
	memBk := func(int) (wal.Backend, error) { return wal.NewMemBackend(), nil }
	fileBk := func(i int) (wal.Backend, error) {
		sub := fmt.Sprintf("%s/v%d", dir, i)
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		return wal.NewFileBackend(sub)
	}
	// file-g1 pays one real fsync per record; it runs a reduced stream
	// (ns/op stays comparable) so the study does not spend its whole
	// budget on the worst configuration.
	variants := []variant{
		{"no-journal", 0, 0, nil},
		{"mem-g1", 1, 0, memBk},
		{"mem-g64", 64, 0, memBk},
		{"file-g1", 1, steps / 10, fileBk},
		{"file-g64", 64, 0, fileBk},
		{"file-g256", 256, 0, fileBk},
	}

	t := &sim.Table{
		Title: "PERF9 — durable certification: write-ahead journal overhead and recovery cost",
		Columns: []string{
			"variant", "admitted", "ns/op", "overhead", "log KiB", "fsyncs",
			"snapshots", "recovery ms", "replays",
		},
		Notes: []string{
			fmt.Sprintf("workload: %d gated admission steps, %d-transaction window over %d conjuncts × %d items, compaction (the snapshot-cut trigger) every %d steps",
				steps, window, conjuncts, itemsPer, compactCadence(steps)),
			"identical admission decisions in every pass (the journal observes the lifecycle stream; it never changes a verdict)",
			"every written log recovered and verified verdict-identical to the live monitor",
			"group commit amortizes the sync: the in-memory backend meets the <2x overhead target; the file backends are fsync-bound, with cost falling as the window widens",
		},
	}
	var records []WalRecord
	// Per-step-count unjournaled baselines: decision identity and the
	// overhead ratio both compare a journaled pass against the
	// identical unjournaled stream.
	baseOut := make(map[int]walOutcome)
	baseNs := make(map[int]float64)
	baselineFor := func(n int) (walOutcome, float64) {
		if out, ok := baseOut[n]; ok {
			return out, baseNs[n]
		}
		m := core.NewMonitor(partition)
		out, wall := walPass(m, nil, n, window, compactCadence(n), partition, items, seed)
		baseOut[n] = out
		baseNs[n] = float64(wall.Nanoseconds()) / float64(out.ops)
		return out, baseNs[n]
	}
	for i, v := range variants {
		vsteps := v.steps
		if vsteps == 0 {
			vsteps = steps
		}
		m := core.NewMonitor(partition)
		var w *wal.Writer
		var b wal.Backend
		if v.mk != nil {
			b, err = v.mk(i)
			if err != nil {
				return nil, nil, err
			}
			w, err = wal.NewWriter(b, wal.Options{GroupEvery: v.group, SnapshotEvery: 4})
			if err != nil {
				return nil, nil, err
			}
		}
		var sink core.LifecycleSink
		if w != nil {
			sink = w
		}
		out, wall := walPass(m, sink, vsteps, window, compactCadence(vsteps), partition, items, seed)
		nsPerOp := float64(wall.Nanoseconds()) / float64(out.ops)
		rec := WalRecord{
			Variant: v.name,
			Ops:     out.ops,
			WallNs:  wall.Nanoseconds(),
			NsPerOp: nsPerOp,
		}
		if v.mk == nil {
			// This pass IS the unjournaled baseline for its step count.
			baseOut[vsteps] = out
			baseNs[vsteps] = nsPerOp
			rec.Overhead = 1
		} else {
			baseline, baselineNs := baselineFor(vsteps)
			if out != baseline {
				return nil, nil, fmt.Errorf("experiments: wal pass %s diverged: %+v, baseline %+v", v.name, out, baseline)
			}
			rec.Overhead = nsPerOp / baselineNs
			if err := w.Close(); err != nil {
				return nil, nil, fmt.Errorf("experiments: close %s journal: %w", v.name, err)
			}
			st := w.Stats()
			rec.Events = st.Records
			rec.LogBytes = st.LogBytes
			rec.Fsyncs = st.Fsyncs
			rec.Snapshots = st.Snapshots
			recStart := time.Now()
			recMon, info, err := wal.Recover(b, partition)
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: recover %s: %w", v.name, err)
			}
			rec.RecoveryNs = time.Since(recStart).Nanoseconds()
			rec.RecoveryReplays = info.SnapshotEvents + info.Replayed
			rec.RecoveredSeq = info.LastSeq
			if recMon.PWSR() != m.PWSR() || recMon.Ops() != m.Ops() ||
				recMon.CompactStats() != m.CompactStats() {
				return nil, nil, fmt.Errorf("experiments: %s recovery diverged: ops %d vs %d, stats %+v vs %+v",
					v.name, recMon.Ops(), m.Ops(), recMon.CompactStats(), m.CompactStats())
			}
		}
		records = append(records, rec)
		overhead := "1.00x"
		if v.mk != nil {
			overhead = fmt.Sprintf("%.2fx", rec.Overhead)
		}
		recovery, replays := "—", "—"
		if v.mk != nil {
			recovery = fmt.Sprintf("%.2f", float64(rec.RecoveryNs)/1e6)
			replays = fmt.Sprintf("%d", rec.RecoveryReplays)
		}
		t.AddRow(
			v.name,
			fmt.Sprintf("%d", out.ops),
			fmt.Sprintf("%.0f", nsPerOp),
			overhead,
			fmt.Sprintf("%.0f", float64(rec.LogBytes)/1024),
			fmt.Sprintf("%d", rec.Fsyncs),
			fmt.Sprintf("%d", rec.Snapshots),
			recovery,
			replays,
		)
	}
	return t, records, nil
}
