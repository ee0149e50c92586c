package learn

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Replica merge: a cluster of daemons gossips learner snapshots so any
// replica's residual models are warm for any region. Like the audit
// calibrator's, the merge rule below is a join semilattice over
// per-model entries — idempotent, commutative, associative — so all
// replicas converge to identical models (and identical snapshot bytes)
// once every state has reached every replica.

// modelWins reports whether the remote model should replace the local
// one under the join order: more samples win; at equal samples the
// lexically larger canonical encoding wins — arbitrary but total, so
// both sides of a tie pick the same winner.
func modelWins(local, remote ModelSnapshot) bool {
	if remote.N != local.N {
		return remote.N > local.N
	}
	lb, _ := json.Marshal(local)
	rb, _ := json.Marshal(remote)
	return bytes.Compare(rb, lb) > 0
}

// SnapshotState serializes the learner's snapshot compactly and
// deterministically: the gossip payload, in the replication shape of
// audit.Calibrator.
func (l *Learner) SnapshotState() []byte { return encode(l.Snapshot()) }

func encode(s *Snapshot) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic("learn: marshal snapshot: " + err.Error())
	}
	return b
}

// MergeState folds a peer replica's SnapshotState into this learner: per
// model (global and per-region), the winning side's sufficient statistics
// are kept and the weights re-solved. MinSamples stays local; a state
// written under another lambda or maxVariance is refused. It reports
// whether anything changed — exactly when the snapshot's bytes did, and
// Version advances with it. A region is reported stale to the runtime
// when one of its models was replaced and the old or the new one clears
// the confidence gate: a correction moved, or the gate flipped. A replaced
// global model invalidates nothing, as when trained locally —
// ObserveVerdict reports only the region it observed.
func (l *Learner) MergeState(data []byte) (changed bool, err error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return false, fmt.Errorf("learn: decode state: %w", err)
	}
	if err := validateSnapshot(&s); err != nil {
		return false, fmt.Errorf("learn: merge: %w", err)
	}
	var stale []string
	l.mu.Lock()
	// mergeInto reports whether a model that corrects verdicts, before or
	// after, was replaced.
	mergeInto := func(dst map[string]*model, id string, ms ModelSnapshot) bool {
		m := dst[id]
		if m != nil && !modelWins(snapshotModel(m), ms) {
			return false
		}
		dst[id] = restoreModel(ms)
		changed = true
		return l.passesGate(m) || l.passesGate(dst[id])
	}
	for id, ms := range s.Global {
		mergeInto(l.global, id, ms)
	}
	for region, rm := range s.Regions {
		dst := l.regions[region]
		if dst == nil {
			// A region new here is new state, even one with no models.
			dst = make(map[string]*model, len(rm))
			l.regions[region] = dst
			changed = true
		}
		moved := false
		for id, ms := range rm {
			moved = mergeInto(dst, id, ms) || moved
		}
		if moved {
			stale = append(stale, region)
		}
	}
	if changed {
		l.version++
	}
	notify := l.changed
	l.mu.Unlock()
	for _, region := range stale {
		notify(region)
	}
	return changed, nil
}
