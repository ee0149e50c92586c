// Package attrdb implements the Program Attribute Database of the paper's
// compiler/runtime framework (Figure 2).
//
// At compile time, the static analyses populate one RegionAttrs record per
// outlined target region: the instruction loadout under the static
// heuristics, the symbolic IPDA stride expression of every memory access,
// the symbolic iteration-space and transfer-size expressions, and the list
// of runtime parameters whose values the expressions still need. The
// record is fully serializable (JSON): in the paper the compiler embeds it
// in the binary and the OpenMP runtime queries it by region identifier.
//
// At run time, Resolve binds the missing parameter values (array sizes,
// loop trip counts) and produces the concrete model inputs: exact
// iteration count, transfer bytes, and the coalesced/uncoalesced access
// classification that completes the Hong–Kim model.
package attrdb

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// StrideAttr is the stored IPDA result for one access site.
type StrideAttr struct {
	Ref    string        `json:"ref"`
	Kind   string        `json:"kind"` // "load" | "store"
	Weight float64       `json:"weight"`
	Elem   int64         `json:"elemBytes"`
	Thread symbolic.Expr `json:"threadStride"`
	// ThreadAffine is false for non-affine subscripts (pessimized).
	ThreadAffine bool          `json:"threadAffine"`
	Inner        symbolic.Expr `json:"innerStride"`
	InnerAffine  bool          `json:"innerAffine"`
	HasInner     bool          `json:"hasInner"`
	Outer        symbolic.Expr `json:"outerStride"`
	OuterAffine  bool          `json:"outerAffine"`
}

// LoadoutAttr is the stored static instruction loadout.
type LoadoutAttr struct {
	FPAdd     float64 `json:"fpAdd"`
	FPMul     float64 `json:"fpMul"`
	FPDiv     float64 `json:"fpDiv"`
	FPSpecial float64 `json:"fpSpecial"`
	IntOps    float64 `json:"intOps"`
	Loads     float64 `json:"loads"`
	Stores    float64 `json:"stores"`
	Branches  float64 `json:"branches"`
}

// toLoadout converts back to the analysis type.
func (l LoadoutAttr) toLoadout() ir.Loadout {
	return ir.Loadout{FPAdd: l.FPAdd, FPMul: l.FPMul, FPDiv: l.FPDiv,
		FPSpecial: l.FPSpecial, IntOps: l.IntOps, Loads: l.Loads,
		Stores: l.Stores, Branches: l.Branches}
}

// RegionAttrs is the stored record of one target region.
type RegionAttrs struct {
	Region    string        `json:"region"`
	Params    []string      `json:"params"`
	IterSpace symbolic.Expr `json:"iterSpace"`
	// TransferBytes = host->device + device->host bytes.
	TransferBytes symbolic.Expr `json:"transferBytes"`
	Loadout       LoadoutAttr   `json:"loadout"`
	Sites         []StrideAttr  `json:"sites"`
}

// Build populates the record for a kernel — the compile-time half of the
// framework. The static heuristics (128 iterations, 50% branches) are
// baked into the loadout and site weights exactly as the paper does.
func Build(k *ir.Kernel, opt ir.CountOptions) (*RegionAttrs, error) {
	if opt.DefaultTrip == 0 {
		opt = ir.DefaultCountOptions()
	}
	an, err := ipda.Analyze(k, opt)
	if err != nil {
		return nil, err
	}
	l := ir.Count(k, opt)
	ra := &RegionAttrs{
		Region:        k.Name,
		Params:        append([]string(nil), k.Params...),
		IterSpace:     k.IterSpace(),
		TransferBytes: k.TransferBytes(),
		Loadout: LoadoutAttr{FPAdd: l.FPAdd, FPMul: l.FPMul, FPDiv: l.FPDiv,
			FPSpecial: l.FPSpecial, IntOps: l.IntOps, Loads: l.Loads,
			Stores: l.Stores, Branches: l.Branches},
	}
	for _, s := range an.Sites {
		ra.Sites = append(ra.Sites, StrideAttr{
			Ref:          s.Access.Ref.String(),
			Kind:         s.Access.Kind.String(),
			Weight:       s.Access.Weight,
			Elem:         s.Access.Elem.Size(),
			Thread:       s.ThreadStride,
			ThreadAffine: s.ThreadAffine,
			Inner:        s.InnerStride,
			InnerAffine:  s.InnerAffine,
			HasInner:     s.HasInner,
			Outer:        s.OuterStride,
			OuterAffine:  s.OuterAffine,
		})
	}
	return ra, nil
}

// Resolved is the runtime-completed view of a region.
type Resolved struct {
	Region        string
	Iterations    int64
	TransferBytes int64
	Loadout       ir.Loadout
	Coalescing    ipda.CoalescingSummary
	Vectorizable  bool
}

// Resolve binds runtime parameter values and completes the record. It
// returns an error naming the first missing parameter — the compiler
// transformation must supply every value the symbolic attributes need.
func (ra *RegionAttrs) Resolve(b symbolic.Bindings, g ipda.WarpGeom) (*Resolved, error) {
	iters, err := ra.IterSpace.Eval(b)
	if err != nil {
		return nil, fmt.Errorf("attrdb: region %s: %w", ra.Region, err)
	}
	bytes, err := ra.TransferBytes.Eval(b)
	if err != nil {
		return nil, fmt.Errorf("attrdb: region %s: %w", ra.Region, err)
	}
	r := &Resolved{
		Region:        ra.Region,
		Iterations:    iters,
		TransferBytes: bytes,
		Loadout:       ra.Loadout.toLoadout(),
		Coalescing:    ipda.CoalescingSummary{Sites: map[ipda.Class]int{}},
		Vectorizable:  true,
	}
	var txWeighted float64
	anyInner := false
	for i := range ra.Sites {
		s := &ra.Sites[i]
		var wa ipda.WarpAccess
		if !s.ThreadAffine {
			wa = ipda.WarpAccess{Class: ipda.NonUniform, Transactions: g.WarpSize}
		} else {
			stride, err := s.Thread.Eval(b)
			if err != nil {
				return nil, fmt.Errorf("attrdb: region %s, site %s: %w", ra.Region, s.Ref, err)
			}
			wa = ipda.ClassifyStride(stride*s.Elem, s.Elem, g)
		}
		r.Coalescing.TotalWeight += s.Weight
		r.Coalescing.Sites[wa.Class]++
		txWeighted += s.Weight * float64(wa.Transactions)
		switch wa.Class {
		case ipda.Uniform, ipda.Coalesced:
			r.Coalescing.CoalescedWeight += s.Weight
		default:
			r.Coalescing.UncoalescedWeight += s.Weight
		}

		if s.HasInner {
			anyInner = true
			if !s.InnerAffine {
				r.Vectorizable = false
			} else if st, err := s.Inner.Eval(b); err != nil || (st != 0 && st != 1) {
				r.Vectorizable = false
			}
		}
	}
	if r.Coalescing.TotalWeight > 0 {
		r.Coalescing.AvgTransactions = txWeighted / r.Coalescing.TotalWeight
	}
	if !anyInner {
		// No sequential loops: vectorize across the thread dimension.
		for i := range ra.Sites {
			s := &ra.Sites[i]
			if !s.ThreadAffine {
				r.Vectorizable = false
				break
			}
			if st, err := s.Thread.Eval(b); err != nil || (st != 0 && st != 1) {
				r.Vectorizable = false
				break
			}
		}
	}
	return r, nil
}

// DB is a collection of region records keyed by region identifier.
type DB struct {
	Regions map[string]*RegionAttrs `json:"regions"`
}

// New returns an empty database.
func New() *DB { return &DB{Regions: map[string]*RegionAttrs{}} }

// Put stores a record.
func (db *DB) Put(ra *RegionAttrs) { db.Regions[ra.Region] = ra }

// Get fetches a record, with a descriptive error listing known regions.
func (db *DB) Get(region string) (*RegionAttrs, error) {
	if ra, ok := db.Regions[region]; ok {
		return ra, nil
	}
	known := make([]string, 0, len(db.Regions))
	for k := range db.Regions {
		known = append(known, k)
	}
	sort.Strings(known)
	return nil, fmt.Errorf("attrdb: no region %q (have %v)", region, known)
}

// Save serializes the database as JSON.
func (db *DB) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(db)
}

// Load deserializes a database written by Save.
func Load(r io.Reader) (*DB, error) {
	db := New()
	if err := json.NewDecoder(r).Decode(db); err != nil {
		return nil, fmt.Errorf("attrdb: load: %w", err)
	}
	return db, nil
}
