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
// The package is the record and its identity: the runtime completes the
// models from the analysis the record was built from (ipda.Shape.Resolve
// over the bound parameter values), not from the stored copy, and keys its
// decisions by the canonical encoding of those values (bindings.go,
// keylayout.go).
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

// Build populates the record of the kernel an analyzes — the compile-time
// half of the framework. The static heuristics (128 iterations, 50%
// branches) are baked into the loadout, as they are into the site weights
// of an analysis under ir.DefaultCountOptions, exactly as the paper does.
func Build(an *ipda.Result) *RegionAttrs {
	k := an.Kernel
	l := ir.Count(k, ir.DefaultCountOptions())
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
	return ra
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
