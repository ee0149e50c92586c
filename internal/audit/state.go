package audit

import (
	"encoding/json"
	"fmt"
	"math"
)

// Replicated calibrator state. A cluster of daemons gossips each
// replica's EWMA corrections so any replica serves any region warm. The
// merge rule below makes the state a join semilattice — idempotent,
// commutative, associative — so however exchanges interleave during a
// partition, every replica converges to the same state (and, because
// Go's JSON encoder emits map keys sorted, to byte-identical snapshot
// bytes) once the partition heals.

// CalTargetState is one (region, target) correction in a calibrator
// state snapshot: the audit count and the signed log-error EWMA. The
// correction factor is not serialized; it is recomputed as exp(ewma).
type CalTargetState struct {
	N    uint64  `json:"n"`
	EWMA float64 `json:"ewma"`
}

// CalRegionState is one region's row: the region audit count plus the
// per-target corrections.
type CalRegionState struct {
	N       uint64                    `json:"n"`
	Targets map[string]CalTargetState `json:"targets"`
}

// CalState is a deterministic serialization of a calibrator's full
// state, used as the gossip payload between replicas.
type CalState struct {
	Regions map[string]CalRegionState `json:"regions"`
}

// SnapshotState serializes the calibrator's current state
// deterministically: identical state yields identical bytes.
func (c *Calibrator) SnapshotState() []byte {
	st := CalState{Regions: map[string]CalRegionState{}}
	c.mu.RLock()
	for region, s := range c.regions {
		rs := CalRegionState{N: s.n, Targets: make(map[string]CalTargetState, len(s.targets))}
		for id, t := range s.targets {
			rs.Targets[id] = CalTargetState{N: t.n, EWMA: t.ewma}
		}
		st.Regions[region] = rs
	}
	c.mu.RUnlock()
	b, err := json.Marshal(st)
	if err != nil {
		// Marshaling maps of plain structs cannot fail.
		panic("audit: marshal calibrator state: " + err.Error())
	}
	return b
}

// moreEvolved reports whether remote should replace local under the
// join order: more audits win; at equal audits the larger EWMA wins,
// which is arbitrary but total, so both sides of a tie pick the same
// winner.
func moreEvolved(local CalTargetState, remote CalTargetState) bool {
	if remote.N != local.N {
		return remote.N > local.N
	}
	return remote.EWMA > local.EWMA
}

// MergeState folds a peer replica's serialized state into this
// calibrator: per (region, target), the more-evolved entry (see
// moreEvolved) wins and its correction factor is recomputed. It reports
// whether anything changed — exactly when the snapshot's bytes did, and
// Version advances with it. Regions in which a replaced factor moved by
// more than 1% are reported to the runtime exactly as ObserveVerdict
// reports them.
func (c *Calibrator) MergeState(data []byte) (changed bool, err error) {
	var st CalState
	if err := json.Unmarshal(data, &st); err != nil {
		return false, fmt.Errorf("audit: decode calibrator state: %w", err)
	}
	for region, rs := range st.Regions {
		for id, ts := range rs.Targets {
			if ts.N == 0 {
				return false, fmt.Errorf("audit: calibrator state %s/%s has zero audit count", region, id)
			}
			if math.IsNaN(ts.EWMA) || math.IsInf(ts.EWMA, 0) {
				return false, fmt.Errorf("audit: calibrator state %s/%s has non-finite ewma", region, id)
			}
		}
	}
	var stale []string
	c.mu.Lock()
	for region, rs := range st.Regions {
		// A region new here is new state, even a row with no targets.
		changed = changed || c.regions[region] == nil
		s := c.state(region)
		if rs.N > s.n {
			s.n = rs.N
			changed = true
		}
		moved := false
		for id, ts := range rs.Targets {
			t := s.target(id)
			if moreEvolved(CalTargetState{N: t.n, EWMA: t.ewma}, ts) {
				moved = t.set(ts.N, ts.EWMA) || moved
				changed = true
			}
		}
		if moved {
			stale = append(stale, region)
		}
	}
	if changed {
		c.version++
	}
	notify := c.changed
	c.mu.Unlock()
	for _, region := range stale {
		notify(region)
	}
	return changed, nil
}
