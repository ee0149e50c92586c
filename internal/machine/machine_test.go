package machine

import (
	"math"
	"strings"
	"testing"
)

func TestPOWER9Table2Parameters(t *testing.T) {
	c := POWER9()
	// Exact values from paper Table II.
	if c.FreqGHz != 3.0 {
		t.Errorf("FreqGHz = %v, want 3.0", c.FreqGHz)
	}
	if c.TLBEntries != 1024 {
		t.Errorf("TLBEntries = %d, want 1024", c.TLBEntries)
	}
	if c.TLBMissPenalty != 14 {
		t.Errorf("TLBMissPenalty = %d, want 14", c.TLBMissPenalty)
	}
	if c.OMP.LoopOverheadIter != 4 {
		t.Errorf("LoopOverheadIter = %d, want 4", c.OMP.LoopOverheadIter)
	}
	if c.OMP.ParScheduleStatic != 10154 {
		t.Errorf("ParScheduleStatic = %d, want 10154", c.OMP.ParScheduleStatic)
	}
	if c.OMP.SyncOverhead != 4000 {
		t.Errorf("SyncOverhead = %d, want 4000", c.OMP.SyncOverhead)
	}
	if c.OMP.ParStartup != 3000 {
		t.Errorf("ParStartup = %d, want 3000", c.OMP.ParStartup)
	}
	// The paper's host: 20-core, 8-SMT = 160 threads.
	if c.Threads() != 160 {
		t.Errorf("Threads = %d, want 160", c.Threads())
	}
}

func TestV100Table3Parameters(t *testing.T) {
	g := TeslaV100()
	if g.SMs != 80 || g.CoresPerSM != 64 {
		t.Errorf("SMs/cores = %d/%d", g.SMs, g.CoresPerSM)
	}
	if g.MemBandwidthGBs != 900 {
		t.Errorf("bandwidth = %v, want 900 GB/s", g.MemBandwidthGBs)
	}
	if g.MemGB != 16 {
		t.Errorf("memory = %d GB", g.MemGB)
	}
	if g.MaxWarpsPerSM != 64 || g.MaxThreadsPerSM != 2048 {
		t.Errorf("occupancy limits = %d/%d", g.MaxWarpsPerSM, g.MaxThreadsPerSM)
	}
	if g.WarpSize != 32 {
		t.Errorf("warp = %d", g.WarpSize)
	}
	// Latency ordering: L1 < L2 < DRAM < DRAM+TLB-miss.
	if !(g.L1HitLatency < g.L2HitLatency && g.L2HitLatency < g.MemLatency) {
		t.Error("latency hierarchy out of order")
	}
	if g.ContextInitSeconds < 0.4 {
		t.Errorf("Volta context init = %v, paper reports upwards of 0.5s",
			g.ContextInitSeconds)
	}
}

func TestGenerationRatios(t *testing.T) {
	v, k := TeslaV100(), TeslaK80()
	// The paper's Table I discussion: V100 bandwidth (900) is nearly
	// double the K80's (480).
	r := v.MemBandwidthGBs / k.MemBandwidthGBs
	if r < 1.7 || r > 2.1 {
		t.Errorf("bandwidth ratio = %v", r)
	}
	// NVLink 2 is several times faster than PCIe 3.
	lr := NVLink2().BandwidthGBs / PCIe3().BandwidthGBs
	if lr < 4 || lr > 8 {
		t.Errorf("link ratio = %v", lr)
	}
	// POWER9 vectorizes better than POWER8 (VSX3).
	if POWER9().VecEfficiency <= POWER8().VecEfficiency {
		t.Error("POWER9 should out-vectorize POWER8")
	}
}

func TestPascalSitsBetweenGenerations(t *testing.T) {
	k, p, v := TeslaK80(), TeslaP100(), TeslaV100()
	if !(k.MemBandwidthGBs < p.MemBandwidthGBs && p.MemBandwidthGBs < v.MemBandwidthGBs) {
		t.Errorf("bandwidth not monotone across generations: %v %v %v",
			k.MemBandwidthGBs, p.MemBandwidthGBs, v.MemBandwidthGBs)
	}
	if !(k.DepartureDelayCoal >= p.DepartureDelayCoal &&
		p.DepartureDelayCoal >= v.DepartureDelayCoal) {
		t.Error("memory service rates not improving across generations")
	}
	l1, l2, l3 := PCIe3(), NVLink1(), NVLink2()
	if !(l1.BandwidthGBs < l2.BandwidthGBs && l2.BandwidthGBs < l3.BandwidthGBs) {
		t.Error("link bandwidth not monotone across generations")
	}
	m := PlatformP8P100()
	if m.CPU.Name != "POWER8" || m.GPU.Name != "Tesla P100" {
		t.Errorf("Minsky platform = %s/%s", m.CPU.Name, m.GPU.Name)
	}
}

func TestLinkTransfer(t *testing.T) {
	l := Link{Name: "test", BandwidthGBs: 10, LatencySec: 1e-6}
	// 10 GB at 10 GB/s = 1 s (+ negligible latency).
	got := l.TransferSeconds(10e9)
	if math.Abs(got-1.000001) > 1e-9 {
		t.Errorf("TransferSeconds = %v", got)
	}
	if l.TransferSeconds(0) != 0 || l.TransferSeconds(-5) != 0 {
		t.Error("zero/negative bytes should cost nothing")
	}
}

func TestCacheGeomSets(t *testing.T) {
	c := CacheGeom{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8}
	if c.Sets() != 64 {
		t.Errorf("Sets = %d, want 64", c.Sets())
	}
}

func TestOpTableComplete(t *testing.T) {
	for _, c := range []*CPU{POWER8(), POWER9()} {
		for op := 0; op < NumOpClasses; op++ {
			d := c.Ops[op]
			if d.Latency <= 0 || d.Recip <= 0 {
				t.Errorf("%s: op %s has invalid desc %+v",
					c.Name, OpClass(op), d)
			}
			if c.Units[d.Unit] <= 0 {
				t.Errorf("%s: op %s mapped to absent unit %s",
					c.Name, OpClass(op), d.Unit)
			}
		}
	}
}

func TestStringers(t *testing.T) {
	if OpFMA.String() != "fp.fma" || OpLoad.String() != "load" {
		t.Error("OpClass stringer")
	}
	if UnitLSU.String() != "LSU" || UnitDIV.String() != "DIV" {
		t.Error("UnitKind stringer")
	}
}

func TestPlatforms(t *testing.T) {
	p1, p2 := PlatformP8K80(), PlatformP9V100()
	if p1.CPU.Name != "POWER8" || p1.GPU.Name != "Tesla K80" {
		t.Errorf("platform 1 = %s/%s", p1.CPU.Name, p1.GPU.Name)
	}
	if p2.CPU.Name != "POWER9" || p2.GPU.Name != "Tesla V100" {
		t.Errorf("platform 2 = %s/%s", p2.CPU.Name, p2.GPU.Name)
	}
	if p1.Link.BandwidthGBs >= p2.Link.BandwidthGBs {
		t.Error("NVLink should outrun PCIe")
	}
	// The flag names resolve to the same two, and a typo is told them.
	for name, want := range map[string]Platform{"p8k80": p1, "p9v100": p2} {
		if got, err := ParsePlatform(name); err != nil || got.Name != want.Name {
			t.Errorf("ParsePlatform(%q) = %q, %v, want %q", name, got.Name, err, want.Name)
		}
	}
	if _, err := ParsePlatform("p9v10"); err == nil ||
		!strings.Contains(err.Error(), "p8k80") || !strings.Contains(err.Error(), "p9v100") {
		t.Errorf("ParsePlatform of an unknown name = %v, want an error listing the known ones", err)
	}
}
