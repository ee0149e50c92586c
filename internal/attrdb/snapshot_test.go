package attrdb

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/ir"
)

func snapshotKernel(t *testing.T, name string) *RegionAttrs {
	t.Helper()
	n := ir.V("n")
	k := &ir.Kernel{
		Name:   name,
		Params: []string{"n"},
		Arrays: []*ir.Array{ir.In("A", ir.F64, n), ir.Arr("B", ir.F64, n)},
		Body: []ir.Stmt{
			ir.ParFor("i", ir.N(0), n,
				ir.Store(ir.R("B", ir.V("i")), ir.Ld("A", ir.V("i")))),
		},
	}
	return build(t, k)
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := New()
	db.Put(snapshotKernel(t, "copy1"))
	db.Put(snapshotKernel(t, "copy2"))

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, NewSnapshot(db, "p9v100", "test")); err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != SnapshotVersion || s.Platform != "p9v100" {
		t.Fatalf("envelope = %+v", s)
	}
	if err := s.VerifyDB(db); err != nil {
		t.Fatalf("round-tripped snapshot fails verify: %v", err)
	}
	if got := len(s.DB().Regions); got != 2 {
		t.Fatalf("snapshot DB has %d regions, want 2", got)
	}
}

func TestSnapshotVerifyDetectsSkew(t *testing.T) {
	db := New()
	db.Put(snapshotKernel(t, "copy1"))
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, NewSnapshot(db, "", "")); err != nil {
		t.Fatal(err)
	}
	s, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Missing region.
	if err := s.VerifyDB(New()); err == nil {
		t.Fatal("verify passed against empty DB")
	}
	// Extra region.
	extra := New()
	extra.Put(snapshotKernel(t, "copy1"))
	extra.Put(snapshotKernel(t, "rogue"))
	if err := s.VerifyDB(extra); err == nil ||
		!strings.Contains(err.Error(), "rogue") {
		t.Fatalf("extra region not reported: %v", err)
	}
	// Mutated attributes.
	mutated := New()
	ra := snapshotKernel(t, "copy1")
	ra.Loadout.FPAdd += 1
	mutated.Put(ra)
	if err := s.VerifyDB(mutated); err == nil ||
		!strings.Contains(err.Error(), "differ") {
		t.Fatalf("mutated attributes not reported: %v", err)
	}
}

func TestReadSnapshotRejects(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader(`{"version":99,"regions":{"x":{}}}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader(`{"version":1,"regions":{}}`)); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}
