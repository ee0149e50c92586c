package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// failedShareBound is how far failed_share may rise, absolute.
const failedShareBound = 0.001

// series is one (workload, metric) of one side: the figure compared,
// and the values whose width says how far that figure can be trusted.
type series struct {
	centre float64
	values []float64
}

// side is one side of a comparison. From one results file the figure is
// the run's own and the values are its repetitions; from several runs of
// the same commit the values are the runs' figures and the figure
// compared is their median.
type side struct {
	series map[string]map[string]*series // workload -> metric
	failed map[string][]float64          // workload -> failed_share per file
	order  []string
}

func loadSide(arg string) (*side, error) {
	s := &side{series: map[string]map[string]*series{}, failed: map[string][]float64{}}
	files := strings.Split(arg, ",")
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var res results
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, w := range res.Workloads {
			if s.series[w.Name] == nil {
				s.series[w.Name] = map[string]*series{}
				s.order = append(s.order, w.Name)
			}
			s.failed[w.Name] = append(s.failed[w.Name], w.FailedShare)
			for name, m := range w.EndToEnd {
				if len(files) == 1 {
					s.series[w.Name][name] = &series{centre: m.Value, values: m.Repetitions}
					continue
				}
				sr := s.series[w.Name][name]
				if sr == nil {
					sr = &series{}
					s.series[w.Name][name] = sr
				}
				sr.values = append(sr.values, m.Value)
				sr.centre = median(sr.values)
			}
		}
	}
	return s, nil
}

// spread is the width of the values as a share of their median: the
// quartile distance from four values up, the full range below that.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartile(s, 1), quartile(s, 3)
	}
	if m := median(s); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

// quartile is the k-th quartile of an ascending slice, by the exclusive
// method Python's statistics.quantiles(n=4) uses.
func quartile(asc []float64, k int) float64 {
	pos := float64(k) * float64(len(asc)+1) / 4
	i := int(pos)
	switch {
	case i < 1:
		return asc[0]
	case i >= len(asc):
		return asc[len(asc)-1]
	}
	return asc[i-1] + (pos-float64(i))*(asc[i]-asc[i-1])
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns the exit code: 1 if any pair regressed past its bound or
// failed_share rose, else 0. A pair whose own spread is wider than its
// bound cannot be told either way and is marked unresolved, unless every
// value of the child beats every value of the parent.
func compareFiles(out io.Writer, parentArg, childArg string) int {
	parent, err := loadSide(parentArg)
	if err == nil {
		var child *side
		if child, err = loadSide(childArg); err == nil {
			return compareSides(out, parent, child)
		}
	}
	fmt.Fprintln(os.Stderr, "bench -compare:", err)
	return 2
}

func compareSides(out io.Writer, parent, child *side) int {
	code := 0
	fmt.Fprintf(out, "%-22s %-26s %14s %14s  %-28s %s\n", "workload", "metric", "parent", "child", "child/parent (base)", "verdict")
	for _, wl := range parent.order {
		if child.series[wl] == nil {
			continue
		}
		for _, d := range endToEnd {
			ps, cs := parent.series[wl][d.name], child.series[wl][d.name]
			if ps == nil || cs == nil {
				continue
			}
			p, c, pv, cv := ps.centre, cs.centre, ps.values, cs.values
			worse := (c - p) / p
			if d.better == "higher" {
				worse = (p - c) / p
			}
			verdict := "ok"
			switch {
			case max(spread(pv), spread(cv)) > d.bound && !allBetter(pv, cv, d.better):
				verdict = fmt.Sprintf("unresolved (spread %.1f%% parent, %.1f%% child > bound %.1f%%)", 100*spread(pv), 100*spread(cv), 100*d.bound)
			case worse > d.bound:
				verdict = fmt.Sprintf("REGRESSION (%.1f%% worse > bound %.1f%%)", 100*worse, 100*d.bound)
				code = 1
			}
			fmt.Fprintf(out, "%-22s %-26s %14.6g %14.6g  %-28s %s\n", wl, d.name, p, c,
				fmt.Sprintf("%.4f (of %.6g %s)", c/p, p, d.unit), verdict)
		}
		pf, cf := median(parent.failed[wl]), median(child.failed[wl])
		verdict := "ok"
		if cf > pf+failedShareBound {
			verdict = "REGRESSION (failed_share rose)"
			code = 1
		}
		fmt.Fprintf(out, "%-22s %-26s %14.6g %14.6g  %-28s %s\n", wl, "failed_share", pf, cf,
			fmt.Sprintf("%+.6g abs (of %.6g)", cf-pf, pf), verdict)
	}
	return code
}

// allBetter reports whether every child value beats every parent value.
func allBetter(parent, child []float64, better string) bool {
	ps, cs := append([]float64(nil), parent...), append([]float64(nil), child...)
	sort.Float64s(ps)
	sort.Float64s(cs)
	if better == "higher" {
		return cs[0] > ps[len(ps)-1]
	}
	return cs[len(cs)-1] < ps[0]
}
