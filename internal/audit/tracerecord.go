package audit

import (
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/trace"
)

// TraceRecord projects the verdict onto a trace record (KindAudit). The
// writer assigns the sequence number on Append. All fields are
// deterministic functions of the audited decision and the simulators, so
// replaying the same traffic at the same sampling rate reproduces the
// verdict stream byte for byte. Its two kind strings are the chosen and
// best measurements' kinds. The record format carries the base pair's
// seconds only: the measurements of the first-registered target of each
// kind, the pair the audited decision's own record carries (0 for a kind
// the registry lacks).
func (v Verdict) TraceRecord() trace.Record {
	rec := trace.Record{
		Kind:          trace.KindAudit,
		Region:        v.Region,
		Bindings:      v.Bindings,
		TargetID:      v.ChosenID,
		BestTargetID:  v.BestID,
		Mispredict:    v.Mispredict,
		RegretSeconds: v.RegretSeconds,
	}
	for _, tm := range v.Targets {
		if tm.Target == v.ChosenID {
			rec.Target = tm.kind.String()
		}
		if tm.Target == v.BestID {
			rec.BestTarget = tm.kind.String()
		}
		switch {
		case !tm.base:
		case tm.kind == offload.KindCPU:
			rec.PredCPUSeconds, rec.ActualCPUSeconds = tm.PredSeconds, tm.ActualSeconds
		default:
			rec.PredGPUSeconds, rec.ActualGPUSeconds = tm.PredSeconds, tm.ActualSeconds
		}
	}
	return rec
}

// RecordObserver returns an OnVerdict hook that appends every verdict to
// the trace writer (errors latch inside the writer, as with decision
// records).
func RecordObserver(w *trace.Writer) func(Verdict) {
	return func(v Verdict) { _ = w.Append(v.TraceRecord()) }
}
