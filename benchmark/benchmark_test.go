package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/sched"
	"pwsr/internal/wal"
)

// small scales a workload down about a thousandfold: tiny template
// pools and a handful of rounds, so every workload runs in
// milliseconds while taking the same code paths.
func small(s *spec) (*spec, options) {
	c := *s
	c.longPool = min(c.longPool, 16)
	c.shortPool = min(c.shortPool, 64)
	c.readerPool = min(c.readerPool, 16)
	c.itemGroups = min(c.itemGroups, 2)
	c.segRounds = 8
	opt := options{seed: 7, rounds: 24, trace: true, setups: 1}
	if c.window > 12 {
		c.segRounds, opt.rounds = 4, 8 // hot-tick rounds are ten times longer
	}
	return &c, opt
}

func runSmall(t *testing.T, s *spec, mutate func(*options)) *result {
	t.Helper()
	c, opt := small(s)
	opt.dir = t.TempDir()
	if mutate != nil {
		mutate(&opt)
	}
	res, err := run(c, opt)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return res
}

// Every workload passes every output check, traced-prefix counts equal
// untraced-prefix counts (run reports a mismatch as a failed check),
// and every registered metric is reported.
func TestWorkloadsPassOutputChecks(t *testing.T) {
	for _, s := range specs {
		res := runSmall(t, s, nil)
		if !res.Correct {
			t.Errorf("%s: output checks failed: %v", s.name, res.Errors)
		}
		if res.Failed != 0 || res.Attempted != res.Rounds*s.txnsPerRound() {
			t.Errorf("%s: attempted %d failed %d over %d rounds", s.name, res.Attempted, res.Failed, res.Rounds)
		}
		for _, d := range endToEndMetrics {
			if v, ok := res.EndToEnd[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, d.Name, v)
			}
		}
		for _, d := range perLayerMetrics {
			if _, ok := res.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", s.name, d.Name)
			}
		}
		if len(res.PerLayer) != len(perLayerMetrics) {
			t.Errorf("%s: %d per-layer metrics reported, %d registered", s.name, len(res.PerLayer), len(perLayerMetrics))
		}
		if res.PerLayer["benchmark.spans"] == 0 {
			t.Errorf("%s: traced pass recorded no spans", s.name)
		}
		if data, err := os.ReadFile(res.TraceFile); err != nil || !bytes.Contains(data, []byte("exec.round")) {
			t.Errorf("%s: trace file %s unreadable or empty (err=%v)", s.name, res.TraceFile, err)
		}
		if s.durable {
			if res.PerLayer["wal.recovery_replayed_events"] == 0 || res.PerLayer["log_bytes_per_op"] == 0 {
				t.Errorf("%s: crash-image recovery measured nothing: %v", s.name, res.PerLayer)
			}
		}
	}
}

// The same seed gives identical exact counts on the tick workloads and
// another seed gives different ones.
func TestTickCountsRepeatExactly(t *testing.T) {
	for _, s := range specs {
		if s.batch {
			continue
		}
		untraced := func(o *options) { o.trace = false }
		a, b := runSmall(t, s, untraced), runSmall(t, s, untraced)
		if a.Counts != b.Counts {
			t.Errorf("%s: same seed, different counts:\n%+v\n%+v", s.name, a.Counts, b.Counts)
		}
		c := runSmall(t, s, func(o *options) { o.trace = false; o.seed = 8 })
		if a.Counts == c.Counts {
			t.Errorf("%s: seeds 7 and 8 gave identical counts %+v", s.name, a.Counts)
		}
	}
}

// cad-tick-durable runs cad-tick's exact program stream: the journal
// changes no decision.
func TestDurableSharesCadTickStream(t *testing.T) {
	untraced := func(o *options) { o.trace = false }
	plain := runSmall(t, specByName("cad-tick"), untraced).Counts
	durable := runSmall(t, specByName("cad-tick-durable"), untraced).Counts
	if durable.LogRecords == 0 {
		t.Fatal("durable run logged nothing")
	}
	durable.LogRecords, durable.LogBytes, durable.Fsyncs, durable.Snapshots = 0, 0, 0, 0
	if plain != durable {
		t.Errorf("journaling changed the run:\n%+v\n%+v", plain, durable)
	}
}

// The tracing wrappers must keep the optional interfaces the engines
// and gates discover by type assertion.
func TestWrappersKeepExtensions(t *testing.T) {
	s, _ := small(specByName("cad-tick-durable"))
	w, err := newWorkload(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPipeline(w, newTracer(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	var policy any = p.policy
	if _, ok := policy.(*tracedGate); !ok {
		t.Fatalf("traced pipeline runs policy %T", policy)
	}
	if _, ok := policy.(exec.Restarter); !ok {
		t.Error("traced gate lost exec.Restarter")
	}
	if _, ok := policy.(exec.Canceler); !ok {
		t.Error("traced gate lost exec.Canceler")
	}
	if _, ok := policy.(exec.Drainer); !ok {
		t.Error("traced gate lost exec.Drainer")
	}
	if _, ok := policy.(exec.BatchGate); !ok {
		t.Error("traced gate lost exec.BatchGate")
	}
	if _, ok := policy.(exec.WatermarkReporter); !ok {
		t.Error("traced gate lost exec.WatermarkReporter")
	}
	var journal any = p.gate.Journal()
	if _, ok := journal.(*tracedJournal); !ok {
		t.Fatalf("traced pipeline journals through %T", journal)
	}
	if _, ok := journal.(sched.Healer); !ok {
		t.Error("traced journal lost sched.Healer")
	}
}

// A crash image keeps exactly the bytes a Sync covered.
func TestCrashImageDiscardsUnsyncedBytes(t *testing.T) {
	b := newCountingBackend(wal.NewMemBackend(), nil)
	f, err := b.Create("00000000.wal")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("-lost"))
	g, _ := b.Create("00000001.wal")
	g.Write([]byte("never synced"))
	image, err := b.crashImage()
	if err != nil {
		t.Fatal(err)
	}
	if got := string(image["00000000.wal"]); got != "durable" {
		t.Errorf("segment 0 image = %q, want %q", got, "durable")
	}
	if got, ok := image["00000001.wal"]; !ok || len(got) != 0 {
		t.Errorf("segment 1 image = %q, want present and empty", got)
	}
	if b.writes != 3 || b.syncs != 1 || b.writeBytes != int64(len("durable-lostnever synced")) {
		t.Errorf("device counts: %d writes, %d syncs, %d bytes", b.writes, b.syncs, b.writeBytes)
	}
	if err := b.Remove("00000001.wal"); err != nil {
		t.Fatal(err)
	}
	if image, _ = b.crashImage(); len(image) != 1 {
		t.Errorf("removed segment still in the image: %v", image)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 1, 4", q1, q3)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 0.95); got != 4 {
		t.Errorf("p95 of 4 values = %v", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) summary {
		return summary{N: 5, Median: v, Q1: v * 0.99, Q3: v * 1.01, Min: v * 0.98, Max: v * 1.02}
	}
	noisy := func(v float64) summary {
		return summary{N: 5, Median: v, Q1: v * 0.8, Q3: v * 1.2, Min: v * 0.7, Max: v * 1.3}
	}
	cases := []struct {
		base, cur summary
		higher    bool
		want      string
	}{
		{steady(100), steady(104), true, "same"},
		{steady(100), steady(85), true, "worse"},
		{steady(100), steady(120), true, "better"},
		{steady(100), steady(120), false, "worse"},
		{steady(100), steady(85), false, "better"},
		{noisy(100), noisy(104), true, "unresolved"},
		{noisy(100), steady(200), true, "better"},
		{noisy(100), steady(50), true, "worse"},
	}
	for i, c := range cases {
		if got := judge(c.base, c.cur, c.higher, 0.10); got != c.want {
			t.Errorf("case %d: judge = %s, want %s", i, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, txnPerS float64, failed int) string {
		rep := report{Runs: []*result{{
			Workload: "cad-tick", Attempted: 1000, Failed: failed,
			EndToEnd: map[string]float64{"setup_s": 0.1, "committed_txn_per_s": txnPerS, "round_p50_ms": 1, "round_p95_ms": 2, "heap_live_mb": 5},
		}}}
		data, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := write("base.json", 1000, 0)
	var out bytes.Buffer
	if code := compareFiles(&out, spec, base, write("same.json", 1010, 0)); code != 0 {
		t.Errorf("equal runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, spec, base, write("slow.json", 700, 0)); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower run: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, spec, base, write("failing.json", 1000, 3)); code != 1 {
		t.Errorf("more failed transactions: exit %d\n%s", code, out.String())
	}
}

// BENCHMARK.json and the registry in metrics.go name the same metrics,
// units and directions, and the same workloads.
func TestSpecMatchesRegistry(t *testing.T) {
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &file); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d registered", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, registry has %+v", kind, i, g, d)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25 || math.IsNaN(g.Bound)) {
				t.Errorf("%s: bound %v out of (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEndMetrics, true)
	check("per_layer", file.PerLayer, perLayerMetrics, false)
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(file.Workloads), len(specs))
	}
	for i, s := range specs {
		if file.Workloads[i].Name != s.name || file.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec has %s / %s", i, file.Workloads[i], s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters", s.name, len(s.why))
		}
	}
}
