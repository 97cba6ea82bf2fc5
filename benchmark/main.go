// Command benchmark is the repository's one end-to-end benchmark: it
// pushes seeded transaction programs through the real certification
// pipeline (program → exec → sched → core → wal → exec.VersionedStore)
// on four named workloads, reports the end-to-end metrics a user sees,
// verifies every output, and in a separate traced pass attributes wall
// time to each layer. README.md in this directory explains every
// metric and workload; BENCHMARK.json at the repository root fixes
// their names, units and regression bounds.
//
//	go run ./benchmark                         # every workload, both passes
//	go run ./benchmark -workload hot-tick -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -repeat 5 -out runs.json
//	go run ./benchmark -compare base.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// The benchmark runs from the root of a checkout: it reads the bounds
// from specFile and keeps its journal segments and trace files in
// scratchDir, which .gitignore names.
const (
	specFile   = "BENCHMARK.json"
	scratchDir = ".bench_build"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all of "+strings.Join(specNames(), ", ")+")")
		seed     = flag.Int64("seed", 1, "seed of the generated programs; it changes nothing else")
		seconds  = flag.Float64("seconds", 10, "timed wall seconds per workload (the run ends at the next segment boundary)")
		rounds   = flag.Int("rounds", 0, "run exactly this many rounds instead of -seconds, so counts repeat exactly")
		trace    = flag.Int("trace", 1, "1: add the traced pass and report per-layer metrics; 0: end-to-end metrics only")
		repeat   = flag.Int("repeat", 1, "run every selected workload this many times (for the repeatability record)")
		out      = flag.String("out", "", "write every run and the per-metric summary to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files by the bounds in ./BENCHMARK.json: benchmark -compare base.json new.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare base.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, specFile, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		return 2
	}

	selected := specs
	if *workload != "" {
		s := specByName(*workload)
		if s == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q (known: %s)\n", *workload, strings.Join(specNames(), ", "))
			return 2
		}
		selected = []*spec{s}
	}

	// One process, at most two threads of load, whatever the host has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	rep := &report{Host: fingerprint()}
	fmt.Printf("host: %s, %s, %d CPUs, GOMAXPROCS %d\n", rep.Host.GoVersion, rep.Host.CPUModel, rep.Host.CPUs, rep.Host.GOMAXPROCS)
	fmt.Println("load: closed loop, one client, rounds issued back to back; fsync latency is this sandbox's page cache, not a device")

	code := 0
	for i := 0; i < *repeat; i++ {
		for _, s := range selected {
			res, err := run(s, options{
				seed: *seed, seconds: *seconds, rounds: *rounds,
				trace: *trace != 0, dir: scratchDir, setups: 11,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", s.name, err)
				return 1
			}
			rep.Runs = append(rep.Runs, res)
			printResult(res)
			if !res.Correct {
				code = 1
			}
			// The last line of a run is its machine-readable record.
			fmt.Println(resultLine(res, *trace != 0))
		}
	}
	if *out != "" {
		rep.summarize()
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *out, err)
			return 1
		}
	}
	return code
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// host is the fingerprint recorded with every set of runs.
type host struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func fingerprint() host {
	h := host{GoVersion: runtime.Version(), CPUModel: "unknown", CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// printResult prints every metric of the run by name with its unit.
func printResult(r *result) {
	fmt.Printf("\n== %s  seed %d: %d rounds in %d segments, %.2f s timed, %d transactions attempted, %d failed\n",
		r.Workload, r.Seed, r.Rounds, r.Segments, r.TimedSeconds, r.Attempted, r.Failed)
	fmt.Printf("   why: %s\n", specByName(r.Workload).why)
	fmt.Printf("   end-to-end (tracing off; %d rounds; rate and latencies are medians over %d segments; heap read at round %d)\n", r.Rounds, r.Segments, r.HeapRounds)
	for _, d := range endToEndMetrics {
		fmt.Printf("     %-32s %14.4f %s\n", d.Name, r.EndToEnd[d.Name], d.Unit)
	}
	if r.PerLayer != nil {
		fmt.Printf("   per layer (spans over the first %.0f rounds, counters over the whole run)\n", r.PerLayer["benchmark.traced_rounds"])
		for _, d := range perLayerMetrics {
			fmt.Printf("     %-32s %14.4f %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
		}
		fmt.Printf("   trace: %s\n", r.TraceFile)
	}
	for _, e := range r.Errors {
		fmt.Printf("   CHECK FAILED: %s\n", e)
	}
	if r.Correct {
		fmt.Println("   output checks: all passed")
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the run's one-line record: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func resultLine(r *result, traced bool) string {
	defs, vals := endToEndMetrics, r.EndToEnd
	if traced {
		defs, vals = perLayerMetrics, r.PerLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line)
}
