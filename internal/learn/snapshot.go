package learn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// SnapshotVersion is the current snapshot format version. ReadSnapshot
// rejects snapshots written by a newer format.
const SnapshotVersion = 1

// ModelSnapshot is one model's accumulated sufficient statistics — the
// Gram matrix, moment vector and target sum-of-squares. Weights are not
// persisted: Restore re-solves them with the same fixed-order
// elimination, so a restored learner's corrections are bit-for-bit the
// originals.
type ModelSnapshot struct {
	N     uint64      `json:"n"`
	Gram  [][]float64 `json:"gram"`
	Mom   []float64   `json:"mom"`
	SumT2 float64     `json:"sumT2"`
}

// Snapshot is the versioned serialization envelope around a Learner's
// state (the attrdb snapshot pattern): hyperparameters plus every
// model's sufficient statistics. Go's JSON encoder emits map keys
// sorted, so two snapshots of identical state are byte-identical.
type Snapshot struct {
	Version     int     `json:"version"`
	MinSamples  int     `json:"minSamples"`
	Lambda      float64 `json:"lambda"`
	MaxVariance float64 `json:"maxVariance"`
	// Global holds the per-target fallback models by registry target ID;
	// Regions the per-(region, target) models.
	Global  map[string]ModelSnapshot            `json:"global"`
	Regions map[string]map[string]ModelSnapshot `json:"regions"`
}

// Snapshot captures the learner's current state.
func (l *Learner) Snapshot() *Snapshot {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.snapshotLocked()
}

// snapshotLocked is Snapshot under the caller's lock (either side).
func (l *Learner) snapshotLocked() *Snapshot {
	s := &Snapshot{
		Version:     SnapshotVersion,
		MinSamples:  l.cfg.MinSamples,
		Lambda:      ridgeLambda,
		MaxVariance: gateMaxVariance,
		Global:      map[string]ModelSnapshot{},
		Regions:     map[string]map[string]ModelSnapshot{},
	}
	for id, m := range l.global {
		s.Global[id] = snapshotModel(m)
	}
	for region, rm := range l.regions {
		out := make(map[string]ModelSnapshot, len(rm))
		for id, m := range rm {
			out[id] = snapshotModel(m)
		}
		s.Regions[region] = out
	}
	return s
}

func snapshotModel(m *model) ModelSnapshot {
	ms := ModelSnapshot{
		N:     m.n,
		Gram:  make([][]float64, NumFeatures),
		Mom:   make([]float64, NumFeatures),
		SumT2: m.sumT2,
	}
	for i := 0; i < NumFeatures; i++ {
		ms.Gram[i] = make([]float64, NumFeatures)
		copy(ms.Gram[i], m.gram[i][:])
		ms.Mom[i] = m.mom[i]
	}
	return ms
}

// Restore replaces the learner's models and MinSamples with the
// snapshot's, re-solving every weight vector deterministically; Version
// advances unless the state was already the snapshot's. The
// verdict/sample counters are not part of the state and keep counting.
// Every region's memoized decisions are reported stale to the runtime.
func (l *Learner) Restore(s *Snapshot) error {
	if err := validateSnapshot(s); err != nil {
		return err
	}
	global := make(map[string]*model, len(s.Global))
	for id, ms := range s.Global {
		global[id] = restoreModel(ms)
	}
	regions := make(map[string]map[string]*model, len(s.Regions))
	for region, rm := range s.Regions {
		out := make(map[string]*model, len(rm))
		for id, ms := range rm {
			out[id] = restoreModel(ms)
		}
		regions[region] = out
	}
	l.mu.Lock()
	before := encode(l.snapshotLocked())
	l.cfg.MinSamples = s.MinSamples
	l.global = global
	l.regions = regions
	if !bytes.Equal(before, encode(l.snapshotLocked())) {
		l.version++
	}
	notify := l.changed
	l.mu.Unlock()
	notify("")
	return nil
}

func restoreModel(ms ModelSnapshot) *model {
	m := &model{n: ms.N, sumT2: ms.SumT2}
	for i := 0; i < NumFeatures; i++ {
		copy(m.gram[i][:], ms.Gram[i])
		m.mom[i] = ms.Mom[i]
	}
	m.solve()
	return m
}

// WriteSnapshot serializes a snapshot as indented JSON —
// deterministically, so identical state yields identical bytes.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot,
// rejecting unknown format versions and malformed model dimensions.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("learn: snapshot: %w", err)
	}
	if err := validateSnapshot(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

func validateSnapshot(s *Snapshot) error {
	if s.Version <= 0 || s.Version > SnapshotVersion {
		return fmt.Errorf("learn: snapshot version %d not supported (max %d)",
			s.Version, SnapshotVersion)
	}
	if s.MinSamples <= 0 {
		return fmt.Errorf("learn: snapshot minSamples %d must be positive", s.MinSamples)
	}
	// The statistics are only as good as the solver that reads them: a
	// snapshot from a build with other hyperparameters is not re-solved
	// under these, it is refused.
	if s.Lambda != ridgeLambda || s.MaxVariance != gateMaxVariance {
		return fmt.Errorf("learn: snapshot lambda %v / maxVariance %v, this build has %v / %v",
			s.Lambda, s.MaxVariance, ridgeLambda, gateMaxVariance)
	}
	for id, m := range s.Global {
		if err := validateModel(m); err != nil {
			return fmt.Errorf("learn: snapshot global model %q: %w", id, err)
		}
	}
	for region, rm := range s.Regions {
		for id, m := range rm {
			if err := validateModel(m); err != nil {
				return fmt.Errorf("learn: snapshot region %q model %q: %w", region, id, err)
			}
		}
	}
	return nil
}

func validateModel(m ModelSnapshot) error {
	if m.N == 0 {
		return fmt.Errorf("zero sample count")
	}
	if len(m.Gram) != NumFeatures || len(m.Mom) != NumFeatures {
		return fmt.Errorf("want %dx%d gram and %d-vector moments, got %dx? and %d",
			NumFeatures, NumFeatures, NumFeatures, len(m.Gram), len(m.Mom))
	}
	for i, row := range m.Gram {
		if len(row) != NumFeatures {
			return fmt.Errorf("gram row %d has %d columns, want %d", i, len(row), NumFeatures)
		}
	}
	return nil
}
