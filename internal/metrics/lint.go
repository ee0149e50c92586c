package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Lint reports the first violation of the text exposition format in r;
// see Parse for the rules.
func Lint(r io.Reader) error {
	_, err := Parse(r)
	return err
}

const (
	metricName = `[a-zA-Z_:][a-zA-Z0-9_:]*`
	labelPair  = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\[\\"n])*"`
)

var (
	headRE   = regexp.MustCompile(`^# (HELP|TYPE) (` + metricName + `) (.*)$`)
	sampleRE = regexp.MustCompile(`^(` + metricName + `)(?:\{(` + labelPair + `(?:,` + labelPair + `)*)\})? (\S+)$`)
	labelRE  = regexp.MustCompile(labelPair)
)

// Parse reads a text exposition and returns its families in order. It
// enforces what a Prometheus scraper does and Write promises: every
// sample follows its own family's HELP and TYPE, no family and no sample
// (name + label set) appears twice, metric and label names are legal,
// label values are quoted and escaped, values are numbers, and every
// histogram's buckets are cumulative, end in le="+Inf", and agree with
// its _count.
func Parse(r io.Reader) ([]Family, error) {
	type hist struct { // one histogram sample's bucket sequence so far
		le, cum      float64
		inf, counted bool
	}
	var fams []Family
	seen := map[string]bool{}   // "# family" and sample (name + label set) identities
	hists := map[string]*hist{} // by family name + labels other than le
	sc := bufio.NewScanner(r)
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		fail := func(msg string) ([]Family, error) {
			return nil, fmt.Errorf("metrics: line %d: %s: %q", ln, msg, line)
		}
		f := &Family{}
		if len(fams) > 0 {
			f = &fams[len(fams)-1]
		}
		if m := headRE.FindStringSubmatch(line); m != nil {
			switch name, text := m[2], m[3]; {
			case m[1] == "HELP" && seen["# "+name]:
				return fail("duplicate family")
			case m[1] == "HELP":
				seen["# "+name] = true
				fams = append(fams, Family{Name: name, Help: text})
			case f.Name != name || f.Type != "":
				return fail("TYPE without its HELP just before")
			case text != "counter" && text != "gauge" && text != "histogram":
				return fail("unknown type")
			default:
				f.Type = text
			}
			continue
		}
		if strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
			return fail("malformed HELP or TYPE (illegal metric name?)")
		}
		if line == "" || line[0] == '#' {
			continue // blank or plain comment
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			return fail("malformed sample (illegal metric or label name, unquoted or badly escaped label value)")
		}
		name, labels := m[1], labelRE.FindAllString(m[2], -1)
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return fail("value is not a number")
		}
		suffix, ok := strings.CutPrefix(name, f.Name)
		isHist := ok && f.Type == "histogram" && (suffix == "_bucket" || suffix == "_sum" || suffix == "_count")
		if f.Type == "" || !isHist && (name != f.Name || f.Type == "histogram") {
			return fail("sample not under its own family's HELP and TYPE")
		}
		id := name + "{" + m[2]
		if seen[id] {
			return fail("duplicate sample")
		}
		seen[id] = true
		le, others := "", ""
		for _, l := range labels {
			key, val, _ := strings.Cut(l, "=")
			if !slices.Contains(f.Labels, key) {
				f.Labels = append(f.Labels, key)
			}
			if key == "le" {
				le = val[1 : len(val)-1]
			} else {
				others += l + ","
			}
		}
		if !isHist {
			continue
		}
		h := hists[f.Name+"{"+others]
		if h == nil {
			h = &hist{le: math.Inf(-1)}
			hists[f.Name+"{"+others] = h
		}
		switch bound, err := strconv.ParseFloat(le, 64); {
		case suffix == "_bucket" && (err != nil || h.inf || v < h.cum || bound <= h.le):
			return fail("bucket out of order, not cumulative, or without a numeric le")
		case suffix == "_bucket":
			h.le, h.cum, h.inf = bound, v, le == "+Inf"
		case suffix == "_count" && (!h.inf || v != h.cum):
			return fail("_count differs from the +Inf bucket")
		case suffix == "_count":
			h.counted = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("metrics: family %s has no TYPE", f.Name)
		}
	}
	for id, h := range hists {
		if !h.inf || !h.counted {
			return nil, fmt.Errorf("metrics: histogram %s} lacks its +Inf bucket or _count", id)
		}
	}
	return fams, nil
}
