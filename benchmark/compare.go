package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// report is the -out file: the host, every run made, and per workload
// and end-to-end metric the median and quartiles over those runs.
type report struct {
	Host    host                          `json:"host"`
	Runs    []*result                     `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
}

// summary is one metric's spread over the runs of one workload.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

func (rep *report) summarize() {
	rep.Summary = map[string]map[string]summary{}
	for _, s := range specs {
		for _, d := range endToEndMetrics {
			var vals []float64
			for _, r := range rep.Runs {
				if r.Workload == s.name {
					vals = append(vals, r.EndToEnd[d.Name])
				}
			}
			if len(vals) == 0 {
				continue
			}
			if rep.Summary[s.name] == nil {
				rep.Summary[s.name] = map[string]summary{}
			}
			sm := summary{N: len(vals), Median: median(vals), Min: vals[0], Max: vals[0]}
			sm.Q1, sm.Q3 = quartiles(vals)
			for _, v := range vals {
				sm.Min, sm.Max = min(sm.Min, v), max(sm.Max, v)
			}
			rep.Summary[s.name][d.Name] = sm
		}
	}
}

// failedTxns sums the failed transactions of a workload's runs.
func (rep *report) failedTxns(workload string) (failed, attempted int) {
	for _, r := range rep.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return failed, attempted
}

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, base, new,
// their ratio and a verdict by the metric's bound in the specification.
// It returns 1 when any metric is worse or any workload failed more
// transactions than before.
func compareFiles(w io.Writer, specPath, basePath, newPath string) int {
	var spec benchmarkSpec
	var base, cur report
	for path, into := range map[string]any{specPath: &spec, basePath: &base, newPath: &cur} {
		if err := readJSON(path, into); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	base.summarize()
	cur.summarize()
	worse := false
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %16s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	for _, s := range specs {
		b, c := base.Summary[s.name], cur.Summary[s.name]
		if b == nil || c == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			verdict := judge(b[m.Name], c[m.Name], m.Better == "higher", m.Bound)
			worse = worse || verdict == "worse"
			fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %9.4f of base  %s\n",
				s.name, m.Name, b[m.Name].Median, c[m.Name].Median, ratio(c[m.Name].Median, b[m.Name].Median), verdict)
		}
		bf, ba := base.failedTxns(s.name)
		cf, ca := cur.failedTxns(s.name)
		verdict := "same"
		if ratio(float64(cf), float64(ca)) > ratio(float64(bf), float64(ba)) {
			verdict, worse = "worse", true
		}
		fmt.Fprintf(w, "%-18s %-22s %14.6f %14.6f %16s  %s\n", s.name, "failed_txn_ratio",
			ratio(float64(bf), float64(ba)), ratio(float64(cf), float64(ca)), "", verdict)
	}
	if worse {
		return 1
	}
	return 0
}

// judge classifies new against base. The change is judged by medians
// against the bound; when either side's own run-to-run spread exceeds
// the bound the medians cannot resolve it, unless every run of one side
// beats every run of the other.
func judge(base, cur summary, higherBetter bool, bound float64) string {
	if base.Median == 0 {
		return "unresolved"
	}
	// gain is the relative change in the better direction.
	gain := (cur.Median - base.Median) / base.Median
	curBest, curWorst, baseBest, baseWorst := cur.Max, cur.Min, base.Max, base.Min
	if !higherBetter {
		gain = -gain
		curBest, curWorst, baseBest, baseWorst = -cur.Min, -cur.Max, -base.Min, -base.Max
	}
	if base.spread() > bound || cur.spread() > bound {
		switch {
		case curWorst > baseBest:
			return "better"
		case curBest < baseWorst && gain < -bound:
			return "worse"
		default:
			return "unresolved"
		}
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > bound:
		return "better"
	default:
		return "same"
	}
}
