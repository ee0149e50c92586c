package learn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/offload"
)

var (
	lawRegions = []string{"gemm", "mvt1", "atax"}
	lawTargets = []string{"cpu/base", "gpu/base", "gpu/prev"}
)

// versioned is what gossip reads of a replicated state (cluster.Source).
type versioned interface {
	Version() uint64
	SnapshotState() []byte
}

// pick returns a random subset of names, possibly empty.
func pick(rng *rand.Rand, names []string) []string {
	var out []string
	for _, n := range names {
		if rng.Intn(2) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// genVerdict is one audit verdict over a random subset of the targets;
// about one measurement in eight is degenerate (a non-positive
// prediction), which the learner skips and the calibrator folds as a zero
// log-error, exactly as the auditor hands it over.
func genVerdict(rng *rand.Rand) (string, offload.Features, []audit.TargetMeasurement) {
	f := offload.Features{
		Iterations:    rng.Int63n(1 << 20),
		TransferBytes: rng.Int63n(1 << 24),
		CoalescedFrac: float64(rng.Intn(5)) / 4,
	}
	var ms []audit.TargetMeasurement
	for _, id := range pick(rng, lawTargets) {
		pred, act := math.Exp(rng.NormFloat64()-5), math.Exp(rng.NormFloat64()-5)
		if rng.Intn(8) == 0 {
			pred = 0
		}
		le := 0.0
		if pred > 0 {
			le = math.Log(act / pred)
		}
		ms = append(ms, audit.TargetMeasurement{Target: id, PredSeconds: pred, ActualSeconds: act, LogErr: le})
	}
	return lawRegions[rng.Intn(len(lawRegions))], f, ms
}

// genModel is a valid model snapshot: a positive sample count and finite
// statistics of the right shape.
func genModel(rng *rand.Rand) ModelSnapshot {
	ms := ModelSnapshot{N: uint64(1 + rng.Intn(6)), Gram: make([][]float64, NumFeatures),
		Mom: make([]float64, NumFeatures), SumT2: rng.Float64()}
	for i := range ms.Gram {
		ms.Gram[i] = make([]float64, NumFeatures)
		for j := range ms.Gram[i] {
			ms.Gram[i][j] = rng.NormFloat64()
		}
		ms.Mom[i] = rng.NormFloat64()
	}
	return ms
}

// genSnapshot is a valid learner state, with a region that holds no
// models. With probability ½ it is derived from base instead: base's
// own state with one model's statistics perturbed at an unchanged sample
// count, the merge's tie-break path.
func genSnapshot(rng *rand.Rand, base *Snapshot) *Snapshot {
	if rng.Intn(2) == 0 {
		rm := base.Regions[lawRegions[rng.Intn(len(lawRegions))]]
		for _, id := range lawTargets {
			if m, ok := rm[id]; ok {
				m.SumT2 += float64(rng.Intn(2)) // unchanged half the time
				rm[id] = m
				return base
			}
		}
	}
	s := &Snapshot{Version: SnapshotVersion, MinSamples: 2 + rng.Intn(2), Lambda: ridgeLambda,
		MaxVariance: gateMaxVariance, Global: map[string]ModelSnapshot{}, Regions: map[string]map[string]ModelSnapshot{}}
	for _, id := range pick(rng, lawTargets) {
		s.Global[id] = genModel(rng)
	}
	for _, region := range pick(rng, lawRegions) {
		s.Regions[region] = map[string]ModelSnapshot{}
		for _, id := range pick(rng, lawTargets) {
			s.Regions[region][id] = genModel(rng)
		}
	}
	s.Regions[emptyRegion(rng)] = map[string]ModelSnapshot{}
	return s
}

// emptyRegion names a region for a row with nothing in it, most often one
// the receiving replica has not seen yet.
func emptyRegion(rng *rand.Rand) string { return fmt.Sprintf("empty%d", rng.Intn(200)) }

// genCalState is a valid calibrator state, with a region row that counts
// no audits and holds no targets.
func genCalState(rng *rand.Rand) []byte {
	st := audit.CalState{Regions: map[string]audit.CalRegionState{}}
	for _, region := range pick(rng, lawRegions) {
		rs := audit.CalRegionState{N: uint64(rng.Intn(4)), Targets: map[string]audit.CalTargetState{}}
		for _, id := range pick(rng, lawTargets) {
			rs.Targets[id] = audit.CalTargetState{N: uint64(1 + rng.Intn(4)), EWMA: float64(rng.Intn(5)-2) / 4}
		}
		st.Regions[region] = rs
	}
	st.Regions[emptyRegion(rng)] = audit.CalRegionState{Targets: map[string]audit.CalTargetState{}}
	b, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return b
}

// TestVersionAdvancesExactlyWhenStateBytesChange is the law gossip's
// encode-on-change rests on: for a calibrator and a learner alike, an
// operation advances Version by one exactly when it changed
// SnapshotState's bytes, and leaves it alone otherwise. Each seed drives
// three replicas — a learner over the fallback calibrator it trains —
// through a generated interleaving of audits (ObserveVerdict), merges of a
// peer's state or of a generated valid one (MergeState), and Restores.
func TestVersionAdvancesExactlyWhenStateBytesChange(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		replicas := make([]*Learner, 3)
		for i := range replicas {
			replicas[i] = New(Config{Fallback: audit.NewCalibrator(0), MinSamples: 2})
		}
		for op := 0; op < 250; op++ {
			l, peer := replicas[rng.Intn(len(replicas))], replicas[rng.Intn(len(replicas))]
			states := []versioned{l, l.cfg.Fallback}
			vers, snaps := make([]uint64, len(states)), make([][]byte, len(states))
			for i, s := range states {
				vers[i], snaps[i] = s.Version(), s.SnapshotState()
			}
			var what string
			var err error
			switch rng.Intn(5) {
			case 0, 1:
				what = "ObserveVerdict"
				l.ObserveVerdict(genVerdict(rng))
			case 2:
				what = "MergeState of a peer"
				if _, err = l.MergeState(peer.SnapshotState()); err == nil {
					_, err = l.cfg.Fallback.MergeState(peer.cfg.Fallback.SnapshotState())
				}
			case 3:
				what = "MergeState of a generated state"
				data, jerr := json.Marshal(genSnapshot(rng, l.Snapshot()))
				if jerr != nil {
					t.Fatal(jerr)
				}
				if _, err = l.MergeState(data); err == nil {
					_, err = l.cfg.Fallback.MergeState(genCalState(rng))
				}
			case 4:
				what = "Restore"
				from := peer.Snapshot()
				if rng.Intn(2) == 0 {
					from = genSnapshot(rng, l.Snapshot())
				}
				err = l.Restore(from)
			}
			if err != nil {
				t.Fatalf("seed %d op %d %s: %v", seed, op, what, err)
			}
			for i, s := range states {
				changed := !bytes.Equal(snaps[i], s.SnapshotState())
				want := vers[i]
				if changed {
					want++
				}
				if got := s.Version(); got != want {
					t.Fatalf("seed %d op %d %s on %T: version %d -> %d, state bytes changed: %v",
						seed, op, what, s, vers[i], got, changed)
				}
			}
		}
	}
}
