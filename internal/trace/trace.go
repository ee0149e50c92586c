// Package trace records and replays offload-runtime launch traffic.
//
// A trace is a JSONL stream of Records, one per decision, in decision
// order. Recording plugs into any runtime through its observer hook
// (Runtime.SetObserver(w.Observer())), so the same mechanism captures
// in-process launches, a daemon's served decisions, or an experiment
// sweep. Replay drives a recorded trace back through a runtime — the
// reproducibility harness: because the analytical models, policies and
// simulators are deterministic, replaying a trace through an identically
// configured runtime must reproduce the decision sequence byte for byte
// (Result.Check reports the first divergence otherwise). Records carry
// only the deterministic fields of a decision; per-run instrumentation
// (cache hits, decision overhead) is deliberately excluded so traces from
// different runs of the same workload compare equal.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// Record kinds. A record with an empty Kind is a decision (the original
// trace format, kept unmarked for backward compatibility); KindAudit
// marks a shadow-audit verdict appended by the audit loop.
const (
	KindDecision = ""
	KindAudit    = "audit"
)

// Record is one traced event — a decision, or an audit verdict judging
// one. Bindings maps serialize in sorted key order (encoding/json), so
// equal records encode to equal bytes.
type Record struct {
	Kind     string           `json:"kind,omitempty"`
	Seq      uint64           `json:"seq"`
	Region   string           `json:"region"`
	Bindings map[string]int64 `json:"bindings"`
	Policy   string           `json:"policy,omitempty"`
	// Target is the chosen target's kind ("cpu"/"gpu"/"split"); TargetID
	// its registry ID ("cpu/base", "gpu/prev", ...). TargetID is empty
	// only in traces recorded before the registry existed — replays then
	// compare by kind alone.
	Target         string  `json:"target"`
	TargetID       string  `json:"targetId,omitempty"`
	PredCPUSeconds float64 `json:"predCpuSeconds"`
	PredGPUSeconds float64 `json:"predGpuSeconds"`
	// Candidates is the full ranked verdict, recorded unless the registry
	// is exactly the classic pair (the base-pair fields above — the
	// decision's BasePair — carry the whole story then).
	Candidates    []offload.Candidate `json:"candidates,omitempty"`
	SplitFraction float64             `json:"splitFraction,omitempty"`
	// ActualSeconds is the executed (simulated) time; 0 for decide-only
	// decisions, which dispatch nothing.
	ActualSeconds float64 `json:"actualSeconds,omitempty"`

	// Audit-verdict fields (Kind == KindAudit). Target above carries the
	// audited decision's chosen target; BestTarget/BestTargetID the
	// measured-fastest one; the actuals are the ground-truth times of the
	// base CPU/GPU pair.
	BestTarget       string  `json:"bestTarget,omitempty"`
	BestTargetID     string  `json:"bestTargetId,omitempty"`
	ActualCPUSeconds float64 `json:"actualCpuSeconds,omitempty"`
	ActualGPUSeconds float64 `json:"actualGpuSeconds,omitempty"`
	Mispredict       bool    `json:"mispredict,omitempty"`
	RegretSeconds    float64 `json:"regretSeconds,omitempty"`
}

// IsAudit reports whether the record is a shadow-audit verdict.
func (r *Record) IsAudit() bool { return r.Kind == KindAudit }

// FromDecision projects a Decision onto its deterministic trace fields.
// The caller supplies the sequence number.
func FromDecision(seq uint64, d offload.Decision) Record {
	rec := Record{
		Seq:           seq,
		Region:        d.Region,
		Bindings:      d.Bindings,
		Policy:        d.Policy.Name(),
		Target:        d.Target.String(),
		TargetID:      d.TargetID,
		SplitFraction: d.SplitFraction,
		ActualSeconds: d.ActualSeconds,
	}
	rec.PredCPUSeconds, rec.PredGPUSeconds = d.BasePair()
	if !classicPair(d.Candidates) {
		rec.Candidates = d.Candidates
	}
	return rec
}

// classicPair reports whether a ranking holds exactly "cpu/base" and
// "gpu/base", in either order.
func classicPair(cs []offload.Candidate) bool {
	return len(cs) == 2 && (cs[0].Target == offload.TargetIDCPUBase && cs[1].Target == offload.TargetIDGPUBase ||
		cs[0].Target == offload.TargetIDGPUBase && cs[1].Target == offload.TargetIDCPUBase)
}

// Writer appends records to a JSONL stream. It is safe for concurrent
// use; sequence numbers are assigned in append order under the lock. The
// first write error latches (Err) and silences subsequent appends, so
// the Observer closure stays usable from launch hot paths.
type Writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	seq uint64
	err error
}

// NewWriter wraps w in a trace writer. Call Flush before reading the
// underlying stream.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Record appends one decision, assigning it the next sequence number.
func (w *Writer) Record(d offload.Decision) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.append(FromDecision(w.seq, d))
}

// Append appends a pre-built record (e.g. an audit verdict), assigning it
// the next sequence number; rec.Seq is overwritten.
func (w *Writer) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	rec.Seq = w.seq
	return w.append(rec)
}

// append serializes one record under the held lock.
func (w *Writer) append(rec Record) error {
	if w.err != nil {
		return w.err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		w.err = err
		return err
	}
	w.seq++
	if _, err := w.bw.Write(append(line, '\n')); err != nil {
		w.err = err
	}
	return w.err
}

// Observer adapts the writer to the runtime's observer hook
// (Runtime.SetObserver), recording every decision the runtime completes.
func (w *Writer) Observer() func(offload.Decision) {
	return func(d offload.Decision) { _ = w.Record(d) }
}

// Len reports the number of records appended so far.
func (w *Writer) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return int(w.seq)
}

// Flush drains the buffer to the underlying writer.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// Err returns the latched first error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Read parses a JSONL trace stream into records.
func Read(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var recs []Record
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return recs, nil
}

// Divergence describes the first point where a replay stopped matching
// its trace.
type Divergence struct {
	Seq   uint64
	Field string
	Want  string
	Got   string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("seq %d: %s = %s, trace has %s", d.Seq, d.Field, d.Got, d.Want)
}

// Result summarizes a replay.
type Result struct {
	// Total counts the decision records driven through the runtime.
	Total int
	// Matched counts records whose replayed decision agreed on every
	// deterministic field.
	Matched int
	// Audits counts audit-verdict records skipped by the replay.
	Audits int
	// First is the first divergence (nil when Matched == Total).
	First *Divergence
}

// Check returns an error describing the first divergence, or nil when
// the replay reproduced the trace exactly.
func (r *Result) Check() error {
	if r.First == nil {
		return nil
	}
	return fmt.Errorf("trace: replay diverged at %s (%d/%d matched)",
		r.First, r.Matched, r.Total)
}

// Replay drives the records in order through rt and compares each
// replayed decision against its record. When execute is true the replay
// uses Launch (dispatching the chosen target, comparing executed times);
// otherwise Decide (selection only, actual times compared only when the
// trace has them and execution happened). Audit-verdict records are
// skipped — they are outputs of the audit loop, not traffic; a replay
// re-generates them through whatever auditor is observing rt (and the
// deterministic sampler re-audits the same points). Replay stops at the
// first runtime error; divergences do not stop it.
func Replay(rt *offload.Runtime, recs []Record, execute bool) (*Result, error) {
	res := &Result{}
	for i := range recs {
		rec := &recs[i]
		if rec.IsAudit() {
			res.Audits++
			continue
		}
		res.Total++
		b := symbolic.Bindings(rec.Bindings)
		r, err := rt.Region(rec.Region)
		var out *offload.Outcome
		switch {
		case err != nil:
		case execute:
			out, err = r.Launch(b)
		default:
			out, err = r.Decide(b)
		}
		if err != nil {
			return res, fmt.Errorf("trace: seq %d (%s): %w", rec.Seq, rec.Region, err)
		}
		if d := compare(rec, &out.Decision, execute); d != nil {
			if res.First == nil {
				res.First = d
			}
			continue
		}
		res.Matched++
	}
	return res, nil
}

// compare checks a replayed decision against its record.
func compare(rec *Record, d *offload.Decision, executed bool) *Divergence {
	diverge := func(field, want, got string) *Divergence {
		return &Divergence{Seq: rec.Seq, Field: field, Want: want, Got: got}
	}
	if got := d.Target.String(); got != rec.Target {
		return diverge("target", rec.Target, got)
	}
	if rec.TargetID != "" && d.TargetID != rec.TargetID {
		return diverge("targetId", rec.TargetID, d.TargetID)
	}
	if got := d.Policy.Name(); got != rec.Policy {
		return diverge("policy", rec.Policy, got)
	}
	if len(rec.Candidates) > 0 {
		if len(d.Candidates) != len(rec.Candidates) {
			return diverge("candidates",
				fmt.Sprint(len(rec.Candidates)), fmt.Sprint(len(d.Candidates)))
		}
		for i, c := range rec.Candidates {
			if d.Candidates[i].Target != c.Target {
				return diverge(fmt.Sprintf("candidates[%d].target", i),
					c.Target, d.Candidates[i].Target)
			}
			if d.Candidates[i].PredSeconds != c.PredSeconds {
				return diverge(fmt.Sprintf("candidates[%d].predSeconds", i),
					fmt.Sprint(c.PredSeconds), fmt.Sprint(d.Candidates[i].PredSeconds))
			}
		}
	}
	cpuSec, gpuSec := d.BasePair()
	if cpuSec != rec.PredCPUSeconds {
		return diverge("predCpuSeconds", fmt.Sprint(rec.PredCPUSeconds), fmt.Sprint(cpuSec))
	}
	if gpuSec != rec.PredGPUSeconds {
		return diverge("predGpuSeconds", fmt.Sprint(rec.PredGPUSeconds), fmt.Sprint(gpuSec))
	}
	if d.SplitFraction != rec.SplitFraction {
		return diverge("splitFraction",
			fmt.Sprint(rec.SplitFraction), fmt.Sprint(d.SplitFraction))
	}
	if executed && rec.ActualSeconds != 0 && d.ActualSeconds != rec.ActualSeconds {
		return diverge("actualSeconds",
			fmt.Sprint(rec.ActualSeconds), fmt.Sprint(d.ActualSeconds))
	}
	return nil
}
