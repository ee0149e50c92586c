package offload

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/hybridsel/hybridsel/internal/machine"
)

// TargetKind classifies a registered target by which analytical model
// predicts it and which ground-truth simulator executes it.
type TargetKind uint8

// Target kinds.
const (
	KindCPU TargetKind = iota
	KindGPU
	// KindSplit is the kind of a cooperative verdict — a leading fraction
	// of the iteration space on the base host concurrently with the rest
	// on the base device. No registered target has it.
	KindSplit
)

// String names the kind.
func (k TargetKind) String() string {
	switch k {
	case KindGPU:
		return "gpu"
	case KindSplit:
		return "split"
	}
	return "cpu"
}

// MarshalJSON encodes the kind as its name ("cpu"/"gpu"/"split").
func (k TargetKind) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, k.String()), nil
}

// UnmarshalJSON decodes a kind name.
func (k *TargetKind) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("offload: target kind: %w", err)
	}
	switch s {
	case "cpu":
		*k = KindCPU
	case "gpu":
		*k = KindGPU
	case "split":
		*k = KindSplit
	default:
		return fmt.Errorf("offload: unknown target kind %q", s)
	}
	return nil
}

// Canonical registry IDs. The classic pair carries these names; the
// split pseudo-target identifies cooperative host+device decisions in
// logs, traces and metrics without occupying a registry slot.
const (
	TargetIDCPUBase = "cpu/base"
	TargetIDGPUBase = "gpu/base"
	TargetIDSplit   = "split"
)

// TargetSpec names one execution destination: a machine descriptor
// registered under a stable ID. Exactly one of CPU or GPU is set,
// matching Kind.
type TargetSpec struct {
	// ID is the registry name ("cpu/base", "gpu/prev", ...). IDs are
	// opaque to the runtime; the kind/variant convention is just that.
	ID   string
	Kind TargetKind

	// CPU-kind fields. Threads is the OMP team size on this target
	// (0 = all hardware threads of CPU).
	CPU     *machine.CPU
	Threads int

	// GPU-kind fields.
	GPU  *machine.GPU
	Link machine.Link
}

// validate checks the spec is internally consistent.
func (s TargetSpec) validate() error {
	if s.ID == "" {
		return fmt.Errorf("offload: target spec with empty ID")
	}
	if s.ID == TargetIDSplit {
		return fmt.Errorf("offload: target ID %q is reserved", TargetIDSplit)
	}
	switch s.Kind {
	case KindCPU:
		if s.CPU == nil {
			return fmt.Errorf("offload: target %q: CPU kind without CPU descriptor", s.ID)
		}
	case KindGPU:
		if s.GPU == nil {
			return fmt.Errorf("offload: target %q: GPU kind without GPU descriptor", s.ID)
		}
	default:
		return fmt.Errorf("offload: target %q: kind %d is not registrable", s.ID, s.Kind)
	}
	return nil
}

// Registry is an ordered, immutable set of execution targets. Order is
// significant: it is the deterministic tie-break of the ranking (equal
// calibrated predictions rank in registration order) and the dual-
// execution order of the oracle policy. Build one with ParseTargets (or
// the ClassicPair/SyntheticTargets helpers) and hand it to Config.Targets
// before NewRuntime; it must not be mutated afterwards.
type Registry struct {
	specs []TargetSpec
	byID  map[string]int
	// baseCPU/baseGPU index the first spec of each kind (-1 when the
	// registry has none): the pair Decision.BasePair reports and the split
	// planner divides the iteration space between.
	baseCPU, baseGPU int
}

// newRegistry builds a registry from specs in order. IDs must be unique.
func newRegistry(specs ...TargetSpec) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("offload: empty target registry")
	}
	g := &Registry{
		specs:   append([]TargetSpec(nil), specs...),
		byID:    make(map[string]int, len(specs)),
		baseCPU: -1,
		baseGPU: -1,
	}
	for i, s := range g.specs {
		if err := s.validate(); err != nil {
			return nil, err
		}
		if _, dup := g.byID[s.ID]; dup {
			return nil, fmt.Errorf("offload: duplicate target ID %q", s.ID)
		}
		g.byID[s.ID] = i
		if s.Kind == KindCPU && g.baseCPU < 0 {
			g.baseCPU = i
		}
		if s.Kind == KindGPU && g.baseGPU < 0 {
			g.baseGPU = i
		}
	}
	return g, nil
}

// ClassicPair returns the two-target registry equivalent to the paper's
// binary selection: the platform's host as "cpu/base" and its
// accelerator as "gpu/base". This is the default registry a Runtime
// builds when Config.Targets is nil, and the configuration under which
// ranked verdicts are bit-for-bit identical to the historical binary
// decisions.
func ClassicPair(p machine.Platform, threads int) *Registry {
	g, err := newRegistry(
		TargetSpec{ID: TargetIDCPUBase, Kind: KindCPU, CPU: p.CPU, Threads: threads},
		TargetSpec{ID: TargetIDGPUBase, Kind: KindGPU, GPU: p.GPU, Link: p.Link},
	)
	if err != nil {
		// The two literal specs above cannot fail validation.
		panic(err)
	}
	return g
}

// SyntheticTargets returns the demo N-way registry for a platform: the
// classic pair plus a previous-generation GPU ("gpu/prev") and a
// reduced-SMT host configuration ("cpu/smt2"), so rankings exercise
// N > 2 without extra hardware tables. The previous generation is the
// Pascal P100 over NVLink 1 (or, when the platform already runs a
// Kepler-era part, the P100 stands in as the nearest neighbour).
func SyntheticTargets(p machine.Platform, threads int) *Registry {
	prevGPU, prevLink := machine.TeslaP100(), machine.NVLink1()
	if p.GPU.Name == prevGPU.Name {
		prevGPU, prevLink = machine.TeslaK80(), machine.PCIe3()
	}
	smt := machine.ReducedSMT(p.CPU, 2)
	g, err := newRegistry(
		TargetSpec{ID: TargetIDCPUBase, Kind: KindCPU, CPU: p.CPU, Threads: threads},
		TargetSpec{ID: TargetIDGPUBase, Kind: KindGPU, GPU: p.GPU, Link: p.Link},
		TargetSpec{ID: "gpu/prev", Kind: KindGPU, GPU: prevGPU, Link: prevLink},
		TargetSpec{ID: "cpu/smt2", Kind: KindCPU, CPU: smt},
	)
	if err != nil {
		panic(err)
	}
	return g
}

// ParseTargets resolves a -targets flag value against a platform:
// "classic" (the CPU+GPU pair), "synthetic" (classic plus gpu/prev and
// cpu/smt2), or a comma-separated subset of those four well-known IDs.
func ParseTargets(p machine.Platform, threads int, s string) (*Registry, error) {
	switch s {
	case "", "classic":
		return ClassicPair(p, threads), nil
	case "synthetic":
		return SyntheticTargets(p, threads), nil
	}
	all := SyntheticTargets(p, threads)
	var specs []TargetSpec
	for _, id := range strings.Split(s, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		sp, ok := all.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("offload: unknown target %q (have classic|synthetic|%s)",
				id, strings.Join(all.IDs(), ","))
		}
		specs = append(specs, sp)
	}
	return newRegistry(specs...)
}

// withResolvedThreads returns a copy of the registry with every CPU
// target's team size resolved to a concrete thread count (0 or
// over-subscribed values clamp to the descriptor's hardware threads).
// The copy keeps registration order; the receiver is untouched, so a
// registry can be shared across runtimes.
func (g *Registry) withResolvedThreads() *Registry {
	specs := append([]TargetSpec(nil), g.specs...)
	for i := range specs {
		s := &specs[i]
		if s.Kind == KindCPU && (s.Threads <= 0 || s.Threads > s.CPU.Threads()) {
			s.Threads = s.CPU.Threads()
		}
	}
	out, err := newRegistry(specs...)
	if err != nil {
		// g was already validated; a copy cannot fail.
		panic(err)
	}
	return out
}

// Len returns the number of registered targets.
func (g *Registry) Len() int { return len(g.specs) }

// At returns the i-th spec in registration order.
func (g *Registry) At(i int) TargetSpec { return g.specs[i] }

// Lookup resolves a target by ID.
func (g *Registry) Lookup(id string) (TargetSpec, bool) {
	i, ok := g.byID[id]
	if !ok {
		return TargetSpec{}, false
	}
	return g.specs[i], true
}

// IDs returns the target IDs in registration order.
func (g *Registry) IDs() []string {
	ids := make([]string, len(g.specs))
	for i, s := range g.specs {
		ids[i] = s.ID
	}
	return ids
}

// Candidate is one target's entry in a ranked verdict: the raw model
// prediction and the calibrated value the ranking ordered on
// (CalSeconds == PredSeconds when no calibrator is configured).
type Candidate struct {
	Target      string     `json:"target"`
	Kind        TargetKind `json:"kind"`
	PredSeconds float64    `json:"predSeconds"`
	CalSeconds  float64    `json:"calSeconds"`

	// order is the registry index, the deterministic tie-break: ranking
	// is a total order regardless of input permutation.
	order int
}

// rankCandidates sorts ascending by calibrated seconds, ties broken by
// registration order (so the classic pair preserves the historical
// strict "gpu < cpu chooses GPU" rule: an exact tie ranks the
// first-registered CPU target on top). Insertion sort: N is small and
// the slice is nearly sorted on recalibration.
func rankCandidates(cands []Candidate) {
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i - 1
		for j >= 0 && (cands[j].CalSeconds > c.CalSeconds ||
			(cands[j].CalSeconds == c.CalSeconds && cands[j].order > c.order)) {
			cands[j+1] = cands[j]
			j--
		}
		cands[j+1] = c
	}
}
