package audit

import (
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/trace"
)

// TraceRecord projects the verdict onto a trace record (KindAudit). The
// writer assigns the sequence number on Append. All fields are
// deterministic functions of the audited decision and the simulators, so
// replaying the same traffic at the same sampling rate reproduces the
// verdict stream byte for byte. The record format carries the base pair's
// seconds only: the measurements of the targets registered under the
// canonical cpu/base and gpu/base IDs (0 where the registry has none).
func (v Verdict) TraceRecord() trace.Record {
	rec := trace.Record{
		Kind:          trace.KindAudit,
		Region:        v.Region,
		Bindings:      v.Bindings,
		Target:        v.Chosen.String(),
		TargetID:      v.ChosenID,
		BestTarget:    v.Best.String(),
		BestTargetID:  v.BestID,
		Mispredict:    v.Mispredict,
		RegretSeconds: v.RegretSeconds,
	}
	for _, tm := range v.Targets {
		switch tm.Target {
		case offload.TargetIDCPUBase:
			rec.PredCPUSeconds, rec.ActualCPUSeconds = tm.PredSeconds, tm.ActualSeconds
		case offload.TargetIDGPUBase:
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
