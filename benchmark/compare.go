package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// resultFile is one invocation: its environment stamp and one section per
// workload run. A file on disk is a run set — {"runs": [...]} — that every
// invocation with the same -out appends to.
type resultFile struct {
	Env       envStamp          `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

type runSet struct {
	Runs []*resultFile `json:"runs"`
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func appendRun(path string, run *resultFile) error {
	rs, err := readRunSet(path)
	if errors.Is(err, fs.ErrNotExist) {
		rs, err = &runSet{}, nil
	}
	if err != nil {
		return err
	}
	rs.Runs = append(rs.Runs, run)
	b, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// side is one run set's view of one (metric, workload) pair.
type side struct {
	values  []float64 // the metric's reported value, one per run
	samples []float64 // what the quartiles are taken over
}

// gather collects a pair's values over the runs of a set. The quartiles are
// over the runs' values when there are at least four runs, and over the
// pooled 1-second slices (set-up samples for setup_s) otherwise.
func (rs *runSet) gather(workload, metric string) side {
	var s side
	var slices []float64
	for _, run := range rs.Runs {
		for _, w := range run.Workloads {
			if w.Name != workload {
				continue
			}
			if v, ok := w.EndToEnd[metric]; ok {
				s.values = append(s.values, v)
				slices = append(slices, w.Slices[metric]...)
			}
		}
	}
	s.samples = s.values
	if len(s.values) < 4 && len(slices) > 1 {
		s.samples = slices
	}
	return s
}

// setupFloor: set-up times closer than this count as equal.
const setupFloor = 0.005 // s

// verdict judges one pair: "worse" when b's median is worse than a's by
// more than the bound, "unresolved" when either side's own spread is wider
// than the bound (never "unchanged"), "ok" otherwise.
func verdict(d metricDef, a, b side) (v string, change, spreadA, spreadB float64) {
	ma, mb := median(a.values), median(b.values)
	if ma != 0 {
		change = (mb - ma) / math.Abs(ma)
	}
	worsening := change
	if d.Better == "higher" {
		worsening = -change
	}
	spreadA, spreadB = spread(a.samples), spread(b.samples)
	v = "ok"
	switch {
	case d.Name == failRatio:
		if mb > ma {
			v = "worse"
		}
	case d.Name == "setup_s" && math.Abs(mb-ma) < setupFloor:
	case max(spreadA, spreadB) > d.Bound:
		// a change that clears both sides' quartile ranges is still a change
		qa1, qa3 := quartiles(a.samples)
		qb1, qb3 := quartiles(b.samples)
		apart := (d.Better == "lower" && qb1 > qa3) || (d.Better == "higher" && qb3 < qa1)
		if v = "unresolved"; worsening > d.Bound && apart {
			v = "worse"
		}
	case worsening > d.Bound:
		v = "worse"
	}
	return v, change, spreadA, spreadB
}

// isDemoted reports whether the pair is shown without a verdict that gates.
func isDemoted(metric, workload string) bool {
	for _, d := range demoted {
		if d.Name == metric {
			return true
		}
	}
	return demotedPairs[[2]string{metric, workload}]
}

// compareFiles prints one verdict per (metric, workload) pair and exits 1
// when any pair is worse or was measured on one side only. It refuses (exit
// 2) run sets whose runs do not share one shape: numbers taken over other
// durations, set-up counts or processor counts are not comparable.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRunSet(pathA)
	if err == nil && len(a.Runs) == 0 {
		err = fmt.Errorf("%s: no runs", pathA)
	}
	var b *runSet
	if err == nil {
		if b, err = readRunSet(pathB); err == nil && len(b.Runs) == 0 {
			err = fmt.Errorf("%s: no runs", pathB)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "stingmark: %v\n", err)
		return 2
	}
	shape := a.Runs[0].Env.shape()
	for _, s := range []struct {
		name string
		rs   *runSet
	}{{pathA, a}, {pathB, b}} {
		e := s.rs.Runs[0].Env
		fmt.Fprintf(stdout, "%s: %d runs, commit %s, %s, kernel %s, %s\n", s.name, len(s.rs.Runs), e.Commit, e.GoVersion, e.Kernel, e.shape())
		for i, run := range s.rs.Runs {
			if got := run.Env.shape(); got != shape {
				fmt.Fprintf(stderr, "stingmark: not comparable: %s run %d has shape\n  %s\n%s run 1 has\n  %s\n", s.name, i+1, got, pathA, shape)
				return 2
			}
		}
	}
	fmt.Fprintf(stdout, "%-15s %-16s %14s %14s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "a", "b", "change", "bound", "spread_a", "spread_b", "verdict")
	counts := map[string]int{}
	for _, w := range workloads {
		for _, d := range fullRunEndToEnd() {
			sa, sb := a.gather(w.name, d.Name), b.gather(w.name, d.Name)
			if len(sa.values) == 0 && len(sb.values) == 0 {
				continue
			}
			if len(sa.values) == 0 || len(sb.values) == 0 {
				only := "a"
				if len(sa.values) == 0 {
					only = "b"
				}
				counts["one-sided"]++
				fmt.Fprintf(stdout, "%-15s %-16s measured in %s only: unresolved\n", w.name, d.Name, only)
				continue
			}
			v, change, spa, spb := verdict(d, sa, sb)
			if isDemoted(d.Name, w.name) {
				v = "demoted"
			}
			counts[v]++
			fmt.Fprintf(stdout, "%-15s %-16s %14.4f %14.4f %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				w.name, d.Name, median(sa.values), median(sb.values), 100*change, 100*d.Bound, 100*spa, 100*spb, v)
		}
	}
	fmt.Fprintf(stdout, "ok %d, worse %d, unresolved %d (%d of them measured on one side only), demoted %d\n",
		counts["ok"], counts["worse"], counts["unresolved"]+counts["one-sided"], counts["one-sided"], counts["demoted"])
	if counts["worse"] > 0 || counts["one-sided"] > 0 {
		return 1
	}
	return 0
}
