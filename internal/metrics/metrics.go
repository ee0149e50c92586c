// Package metrics is hybridsel's one metrics mechanism: the values a
// component counts with, the Set it declares them on, and the only code
// in the tree that knows the Prometheus text exposition format (Write to
// produce it, Parse/Lint to check it).
//
// Counter, Gauge and Histogram stay embedded in their owner's struct, so
// the hot path is the bare atomic it always was; registration takes
// their address together with the series name and help, once, beside the
// field. A family is the samples registered under one name: one for a
// plain series, one per label set for a labelled one (the caller resolves
// a child once and holds it), a function for values read at scrape time,
// or Rows that a Collect callback derives from one snapshot.
package metrics

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter and Gauge are the plain atomics their owners already used.
type (
	Counter = atomic.Uint64
	Gauge   = atomic.Int64
)

// Family is one metric family's declaration, as registered on a Set and
// as Parse reads it back from an exposition (Labels being the label keys
// seen on its samples).
type Family struct {
	Name, Type, Help string
	Labels           []string
}

type sample struct {
	labels string // rendered k="v",... without braces
	value  func() float64
	hist   *Histogram
}

type family struct {
	Family
	samples []sample
	rows    []byte // rendered by a Rows emitter during the current scrape
}

// Set is an ordered collection of families. The zero value is ready to
// use; registration and Write may run concurrently.
type Set struct {
	mu         sync.Mutex
	fams       []*family
	collectors []func()
}

// Counter registers c as a sample of the counter family name; labels are
// key, value pairs. Registering the same name again with other labels
// adds a child to the family.
func (s *Set) Counter(name, help string, c *Counter, labels ...string) {
	s.add(Family{Name: name, Type: "counter", Help: help}, labels,
		sample{value: func() float64 { return float64(c.Load()) }})
}

// Gauge registers g as a sample of the gauge family name.
func (s *Set) Gauge(name, help string, g *Gauge, labels ...string) {
	s.GaugeFunc(name, help, func() float64 { return float64(g.Load()) }, labels...)
}

// GaugeFunc registers a gauge sample whose value f computes at scrape
// time. f runs under the Set's lock and must not register.
func (s *Set) GaugeFunc(name, help string, f func() float64, labels ...string) {
	s.add(Family{Name: name, Type: "gauge", Help: help}, labels, sample{value: f})
}

// Histogram registers h as a sample of the histogram family name.
func (s *Set) Histogram(name, help string, h *Histogram, labels ...string) {
	s.add(Family{Name: name, Type: "histogram", Help: help}, labels, sample{hist: h})
}

// Rows declares a family of type typ ("counter" or "gauge") whose
// samples are emitted afresh at every scrape, and returns its emitter:
// each call adds one sample (labels are key, value pairs). Only a Collect
// callback may call it.
func (s *Set) Rows(name, typ, help string) (emit func(v float64, labels ...string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.declare(Family{Name: name, Type: typ, Help: help})
	return func(v float64, labels ...string) {
		f.rows = appendSample(f.rows, name, renderLabels(labels), "", v)
	}
}

// Collect registers fn to run at every scrape, before anything is
// rendered, to emit the Rows it derives from one snapshot. Like a
// GaugeFunc, fn runs under the Set's lock and must not register.
func (s *Set) Collect(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.collectors = append(s.collectors, fn)
}

func (s *Set) add(decl Family, labels []string, sm sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.declare(decl)
	sm.labels = renderLabels(labels)
	f.samples = append(f.samples, sm)
}

// declare returns the family decl names, appending it on first sight.
func (s *Set) declare(decl Family) *family {
	for _, f := range s.fams {
		if f.Name == decl.Name {
			if f.Type != decl.Type || f.Help != decl.Help {
				panic("metrics: family " + decl.Name + " declared twice, differently")
			}
			return f
		}
	}
	f := &family{Family: decl}
	s.fams = append(s.fams, f)
	return f
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func renderLabels(kv []string) string {
	var sb strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i] + `="` + labelEscaper.Replace(kv[i+1]) + `"`)
	}
	return sb.String()
}

// appendSample renders one line; extra is one more pre-rendered label
// (a bucket's le) after the sample's own.
func appendSample(b []byte, name, labels, extra string, v float64) []byte {
	b = append(b, name...)
	if labels != "" && extra != "" {
		labels += ","
	}
	if labels += extra; labels != "" {
		b = append(b, "{"+labels+"}"...)
	}
	b = append(b, ' ')
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		b = strconv.AppendInt(b, int64(v), 10)
	} else {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}

// appendHistogram renders cumulative buckets, +Inf, _sum and _count from
// one snapshot. Its Count is the sum of the buckets as read, not a
// separate counter, so _count always equals the +Inf bucket even when the
// scrape races an Observe.
func appendHistogram(b []byte, name, labels string, st LatencyStats) []byte {
	var cum uint64
	for i, n := range st.Buckets {
		cum += n
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i].Seconds(), 'g', -1, 64)
		}
		b = appendSample(b, name+"_bucket", labels, `le="`+le+`"`, float64(cum))
	}
	b = appendSample(b, name+"_sum", labels, "", float64(st.SumNanos)/1e9)
	return appendSample(b, name+"_count", labels, "", float64(st.Count))
}

// Write renders every family in the text exposition format (version
// 0.0.4): HELP and TYPE once per family, then its samples.
func (s *Set) Write(w io.Writer) error {
	s.mu.Lock()
	for _, fn := range s.collectors {
		fn()
	}
	var b []byte
	for _, f := range s.fams {
		b = append(b, "# HELP "+f.Name+" "+helpEscaper.Replace(f.Help)+"\n"...)
		b = append(b, "# TYPE "+f.Name+" "+f.Type+"\n"...)
		for _, sm := range f.samples {
			if sm.hist != nil {
				b = appendHistogram(b, f.Name, sm.labels, sm.hist.Snapshot())
			} else {
				b = appendSample(b, f.Name, sm.labels, "", sm.value())
			}
		}
		b = append(b, f.rows...)
		f.rows = f.rows[:0]
	}
	s.mu.Unlock()
	_, err := w.Write(b)
	return err
}
