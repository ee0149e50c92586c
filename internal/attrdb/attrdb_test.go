package attrdb

import (
	"bytes"
	"testing"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// build analyzes k under the static heuristics and builds its record.
func build(t *testing.T, k *ir.Kernel) *RegionAttrs {
	t.Helper()
	an, err := ipda.Analyze(k, ir.DefaultCountOptions())
	if err != nil {
		t.Fatalf("%s: %v", k.Name, err)
	}
	return Build(an)
}

// TestBuildResolveGemm builds gemm's record and resolves its symbolic
// attributes at a launch's runtime values.
func TestBuildResolveGemm(t *testing.T) {
	g, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	ra := build(t, g.IR)
	if ra.Region != "gemm" || len(ra.Params) != 1 || ra.Params[0] != "n" {
		t.Fatalf("attrs = %+v", ra)
	}
	if len(ra.Sites) != 4 { // A, B loads; C load (beta*C) + store
		t.Fatalf("sites = %d", len(ra.Sites))
	}

	b := symbolic.Bindings{"n": 1100}
	if iters, err := ra.IterSpace.Eval(b); err != nil || iters != 1100*1100 {
		t.Fatalf("iterations = %d, %v", iters, err)
	}
	// 3 matrices in, C also out: 4 matrix transfers.
	if bytes, err := ra.TransferBytes.Eval(b); err != nil || bytes != 4*1100*1100*8 {
		t.Fatalf("transfer = %d, %v", bytes, err)
	}
	if _, err := ra.IterSpace.Eval(nil); err == nil {
		t.Fatal("iteration space resolved without its parameter")
	}
	if ra.Loadout.Loads == 0 || ra.Loadout.FPMul == 0 {
		t.Fatalf("loadout = %+v", ra.Loadout)
	}
}

func TestSymbolicStrideSurvivesSerialization(t *testing.T) {
	// The paper's case 2: a stride expression with a runtime unknown is
	// stored symbolically and resolved after deserialization.
	max := ir.V("max")
	k := &ir.Kernel{
		Name:   "paper",
		Params: []string{"max"},
		Arrays: []*ir.Array{ir.Arr("A", ir.F64, max.Mul(max))},
		Body: []ir.Stmt{
			ir.ParFor("a", ir.N(0), max,
				ir.Store(ir.R("A", max.Mul(ir.V("a"))), ir.F(1))),
		},
	}
	db := New()
	db.Put(build(t, k))
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ra2, err := db2.Get("paper")
	if err != nil {
		t.Fatal(err)
	}
	// max=1: contiguous -> coalesced; max=1000: uncoalesced.
	site := ra2.Sites[0]
	if !site.ThreadAffine {
		t.Fatalf("site = %+v", site)
	}
	for _, max := range []int64{1, 1000} {
		stride, err := site.Thread.Eval(symbolic.Bindings{"max": max})
		if err != nil || stride != max {
			t.Fatalf("max=%d: thread stride %d, %v", max, stride, err)
		}
		class := ipda.ClassifyStride(stride*site.Elem, site.Elem, ipda.DefaultWarpGeom()).Class
		if coalesced := class == ipda.Coalesced; coalesced != (max == 1) {
			t.Fatalf("max=%d: class %v", max, class)
		}
	}
}

func TestDBSaveLoadFullSuite(t *testing.T) {
	db := New()
	for _, k := range polybench.Suite() {
		db.Put(build(t, k.IR))
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.Regions) != len(polybench.Suite()) {
		t.Fatalf("regions = %d", len(db2.Regions))
	}
	// Every record must survive the round trip whole (VerifyDB compares
	// the serialized records) — the symbolic expressions included, which
	// must still resolve at both dataset modes.
	if err := NewSnapshot(db, "", "").VerifyDB(db2); err != nil {
		t.Fatal(err)
	}
	for _, k := range polybench.Suite() {
		for _, m := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
			got, err := db2.Regions[k.Name].IterSpace.Eval(k.Bindings(m))
			if want, _ := k.IR.IterSpace().Eval(k.Bindings(m)); err != nil || got != want {
				t.Fatalf("%s/%s: iteration space %d (%v), want %d", k.Name, m, got, err, want)
			}
		}
	}
}

func TestGetUnknownRegion(t *testing.T) {
	db := New()
	if _, err := db.Get("missing"); err == nil {
		t.Fatal("Get accepted unknown region")
	}
}

func TestLoadMalformed(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
