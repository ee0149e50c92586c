// Package machine describes the hardware platforms of the study: POWER8 and
// POWER9 hosts, NVIDIA Tesla K80 (Kepler) and V100 (Volta) accelerators,
// and the PCIe 3.0 / NVLink 2.0 interconnects that pair them.
//
// The parameter values mirror the paper's Tables II and III: vendor
// documentation (POWER9 Processor User Manual, NVIDIA datasheets) plus
// micro-benchmark-derived latencies in the style of Jia et al.'s Volta
// dissection. Where the paper's table contents are approximate, values here
// are representative of the generation — the evaluation depends on
// cross-generation ratios (bandwidth, link speed, SIMD capability), not on
// any single absolute number.
package machine

import "fmt"

// OpClass classifies a dynamic machine operation for scheduling purposes.
// It is shared by the MCA-style static analyzer and the cycle-approximate
// CPU simulator.
type OpClass uint8

// Operation classes.
const (
	OpIntALU OpClass = iota // add/sub/logic/compare on GPRs
	OpIntMul
	OpIntDiv
	OpFAdd // FP add/sub/compare/neg/abs
	OpFMul
	OpFMA
	OpFDiv
	OpFSqrt
	OpLoad
	OpStore
	OpBranch
	OpCvt // int<->fp conversion

	numOpClasses
)

// NumOpClasses is the number of distinct operation classes.
const NumOpClasses = int(numOpClasses)

// String returns the mnemonic of the class.
func (c OpClass) String() string {
	switch c {
	case OpIntALU:
		return "int.alu"
	case OpIntMul:
		return "int.mul"
	case OpIntDiv:
		return "int.div"
	case OpFAdd:
		return "fp.add"
	case OpFMul:
		return "fp.mul"
	case OpFMA:
		return "fp.fma"
	case OpFDiv:
		return "fp.div"
	case OpFSqrt:
		return "fp.sqrt"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	case OpCvt:
		return "cvt"
	}
	return fmt.Sprintf("OpClass(%d)", c)
}

// UnitKind identifies a class of CPU functional unit.
type UnitKind uint8

// Functional unit kinds of the POWER-style core model.
const (
	UnitFX  UnitKind = iota // fixed-point/ALU pipes
	UnitLSU                 // load/store pipes
	UnitFP                  // floating-point/VSX pipes
	UnitBR                  // branch pipe
	UnitDIV                 // non-pipelined divide/sqrt unit
)

// String names the unit kind.
func (k UnitKind) String() string {
	switch k {
	case UnitFX:
		return "FX"
	case UnitLSU:
		return "LSU"
	case UnitFP:
		return "FP"
	case UnitBR:
		return "BR"
	case UnitDIV:
		return "DIV"
	}
	return fmt.Sprintf("UnitKind(%d)", k)
}

// OpDesc gives the scheduling behaviour of one operation class on a core.
type OpDesc struct {
	Unit    UnitKind
	Latency int // result latency in cycles
	// Recip is the reciprocal throughput in cycles the unit stays busy
	// (1 for fully pipelined ops, ~Latency/2 for iterative div/sqrt).
	Recip int
}

// CacheGeom describes one cache level.
type CacheGeom struct {
	SizeBytes    int64
	LineBytes    int64
	Assoc        int
	LatencyCycle int // load-to-use latency on hit
}

// Sets returns the number of sets in the cache.
func (c CacheGeom) Sets() int64 {
	return c.SizeBytes / (c.LineBytes * int64(c.Assoc))
}

// OMPParams are the OpenMP runtime overhead parameters of the Liao model
// (paper Table II). On the real system these are measured with the EPCC
// micro-benchmark suite; package epcc re-measures them against the CPU
// simulator, and these values double as the simulator's injected costs.
type OMPParams struct {
	ParStartup        int64 // cycles: one-time parallel region startup (fork)
	ParScheduleStatic int64 // cycles: static worksharing schedule overhead
	SyncOverhead      int64 // cycles: barrier/join synchronization
	LoopOverheadIter  int64 // cycles of loop bookkeeping per iteration
	ChunkDispatch     int64 // cycles to hand one chunk to a thread
}

// CPU describes a host processor.
type CPU struct {
	Name    string
	FreqGHz float64
	Cores   int
	SMTWays int

	// Pipeline model for the MCA-style analyzer.
	DispatchWidth int
	Units         map[UnitKind]int // pipes per unit kind
	Ops           [NumOpClasses]OpDesc

	// Memory hierarchy (per core for L1/L2; L3 shared).
	L1, L2, L3     CacheGeom
	MemLatency     int // cycles, L3 miss to DRAM
	TLBEntries     int
	TLBMissPenalty int
	PageBytes      int64

	// SIMD capability of the compiler-generated fallback loop:
	// VectorLanesF64 is the number of f64 lanes per vector op;
	// VecEfficiency in (0,1] captures how much of that ideal width the
	// generation's ISA/compiler realises (POWER9's VSX3 > POWER8).
	VectorLanesF64 int
	VecEfficiency  float64

	// VecDivSqrt and VecReductions mark which loop shapes the
	// generation's compiler+ISA actually vectorize (POWER9's VSX3 covers
	// both; POWER8 does not). The ground-truth simulator uses these
	// structural capabilities; the analytical model only knows the
	// coarser VecEfficiency — one of its sources of prediction error.
	VecDivSqrt    bool
	VecReductions bool

	// MemBandwidthGBs is the sustained DRAM bandwidth of the socket,
	// used by the simulator as a throughput ceiling.
	MemBandwidthGBs float64

	// SMTYield is the incremental throughput of each additional SMT way
	// (1 = perfect scaling; POWER SMT8 yields well under that).
	SMTYield float64

	OMP OMPParams
}

// Threads returns the maximum hardware thread count.
func (c *CPU) Threads() int { return c.Cores * c.SMTWays }

// OverheadCycles returns the team-size-dependent OpenMP region overheads:
// fork grows linearly with the threads to wake, the static schedule cost
// is flat, and the join barrier grows with the depth of a tree barrier.
// EPCC measurements show exactly this scaling on large SMT hosts; the
// Table II values are the base constants.
func (c *CPU) OverheadCycles(threads int) (fork, schedule, join float64) {
	if threads < 1 {
		threads = 1
	}
	fork = float64(c.OMP.ParStartup) + 120*float64(threads)
	schedule = float64(c.OMP.ParScheduleStatic)
	depth := 1.0
	for n := threads; n > 1; n >>= 1 {
		depth++
	}
	join = float64(c.OMP.SyncOverhead) * depth
	return fork, schedule, join
}

// GPU describes an accelerator.
type GPU struct {
	Name       string
	SMs        int
	CoresPerSM int
	// ClockGHz is the SM (processor) clock; GraphicsClockGHz the base.
	ClockGHz         float64
	GraphicsClockGHz float64
	MemGB            int
	MemBandwidthGBs  float64

	MaxWarpsPerSM   int
	MaxThreadsPerSM int
	MaxBlocksPerSM  int
	WarpSize        int

	// IssueRate: cycles per instruction issue for one warp (Hong's
	// "issue cycles"). Volta dual-issues; Kepler needs more.
	IssueRate float64

	// Instruction latencies in cycles (Table III).
	IntLatency int
	FPLatency  int

	// Memory access latencies (Table III: on L1 hit / L2 hit / TLB hit /
	// and the TLB-miss penalty added on top).
	L1HitLatency   int
	L2HitLatency   int
	MemLatency     int // DRAM access, TLB hit
	TLBMissPenalty int

	// Departure delays between consecutive memory warps (Hong model).
	DepartureDelayCoal   float64
	DepartureDelayUncoal float64

	// Cache geometry for the ground-truth simulator.
	L1 CacheGeom // per SM
	L2 CacheGeom // device-wide

	// Default threads per block the OpenMP runtime picks.
	DefaultBlockSize int
	// MaxGridBlocks caps the grid the runtime will launch.
	MaxGridBlocks int

	// ContextInitSeconds is the one-time CUDA context creation cost
	// (excluded from kernel timings, as in the paper's protocol).
	ContextInitSeconds float64
}

// PeakWarpsBandwidthBytes returns device bandwidth in bytes/sec.
func (g *GPU) PeakBandwidthBytes() float64 { return g.MemBandwidthGBs * 1e9 }

// Link describes a host-device interconnect.
type Link struct {
	Name string
	// BandwidthGBs is the effective unidirectional transfer bandwidth.
	BandwidthGBs float64
	// LatencySec is the per-transfer fixed software+hardware latency.
	LatencySec float64
}

// TransferSeconds returns the time to move n bytes across the link.
func (l Link) TransferSeconds(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return l.LatencySec + float64(bytes)/(l.BandwidthGBs*1e9)
}

// Platform pairs a host, an accelerator and their interconnect.
type Platform struct {
	Name string
	CPU  *CPU
	GPU  *GPU
	Link Link
}

// powerOps builds the POWER-style per-op scheduling table.
func powerOps(fpLat int) [NumOpClasses]OpDesc {
	var t [NumOpClasses]OpDesc
	t[OpIntALU] = OpDesc{Unit: UnitFX, Latency: 1, Recip: 1}
	t[OpIntMul] = OpDesc{Unit: UnitFX, Latency: 5, Recip: 1}
	t[OpIntDiv] = OpDesc{Unit: UnitDIV, Latency: 23, Recip: 12}
	t[OpFAdd] = OpDesc{Unit: UnitFP, Latency: fpLat, Recip: 1}
	t[OpFMul] = OpDesc{Unit: UnitFP, Latency: fpLat, Recip: 1}
	t[OpFMA] = OpDesc{Unit: UnitFP, Latency: fpLat, Recip: 1}
	t[OpFDiv] = OpDesc{Unit: UnitDIV, Latency: 33, Recip: 17}
	t[OpFSqrt] = OpDesc{Unit: UnitDIV, Latency: 40, Recip: 20}
	t[OpLoad] = OpDesc{Unit: UnitLSU, Latency: 4, Recip: 1}
	t[OpStore] = OpDesc{Unit: UnitLSU, Latency: 1, Recip: 1}
	t[OpBranch] = OpDesc{Unit: UnitBR, Latency: 1, Recip: 1}
	t[OpCvt] = OpDesc{Unit: UnitFP, Latency: 3, Recip: 1}
	return t
}

// POWER9 returns the paper's primary host: a 20-core SMT8 POWER9 (AC922)
// clocked at 3 GHz (Table II).
func POWER9() *CPU {
	return &CPU{
		Name:          "POWER9",
		FreqGHz:       3.0,
		Cores:         20,
		SMTWays:       8,
		DispatchWidth: 6,
		Units: map[UnitKind]int{
			UnitFX: 2, UnitLSU: 2, UnitFP: 2, UnitBR: 1, UnitDIV: 1,
		},
		Ops:             powerOps(6),
		L1:              CacheGeom{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 8, LatencyCycle: 4},
		L2:              CacheGeom{SizeBytes: 512 << 10, LineBytes: 128, Assoc: 8, LatencyCycle: 12},
		L3:              CacheGeom{SizeBytes: 10 << 20, LineBytes: 128, Assoc: 20, LatencyCycle: 36},
		MemLatency:      320,
		TLBEntries:      1024, // Table II
		TLBMissPenalty:  14,   // Table II
		PageBytes:       64 << 10,
		VectorLanesF64:  2,
		VecEfficiency:   0.9, // VSX3: broad vector op support
		VecDivSqrt:      true,
		VecReductions:   true,
		MemBandwidthGBs: 140, // 8-channel DDR4 behind buffered DIMMs
		SMTYield:        0.28,
		OMP: OMPParams{
			ParStartup:        3000,  // Table II
			ParScheduleStatic: 10154, // Table II
			SyncOverhead:      4000,  // Table II
			LoopOverheadIter:  4,     // Table II
			ChunkDispatch:     120,
		},
	}
}

// POWER8 returns the Kepler-era host (also run at 3 GHz in the paper's
// cross-generation experiment). Its VSX generation lacks the POWER9 VSX3
// extensions, which the evaluation surfaces on vector-friendly kernels.
func POWER8() *CPU {
	c := POWER9()
	c.Name = "POWER8"
	c.Ops = powerOps(7)
	c.L3 = CacheGeom{SizeBytes: 8 << 20, LineBytes: 128, Assoc: 16, LatencyCycle: 40}
	c.MemLatency = 350
	c.VecEfficiency = 0.55 // pre-VSX3 vectorization quality
	c.VecDivSqrt = false
	c.VecReductions = false
	c.MemBandwidthGBs = 115
	c.SMTYield = 0.24
	c.OMP.ParScheduleStatic = 11800
	c.OMP.SyncOverhead = 4600
	c.OMP.ParStartup = 3400
	return c
}

// ReducedSMT returns a copy of the CPU limited to the given SMT ways per
// core (clamped to [1, c.SMTWays]). Fleets commonly run POWER hosts in
// SMT2 or SMT4 mode for latency-sensitive work; the reduced descriptor
// registers as its own selection target so the model ranks it against
// the full-SMT configuration.
func ReducedSMT(c *CPU, ways int) *CPU {
	if ways < 1 {
		ways = 1
	}
	if ways > c.SMTWays {
		ways = c.SMTWays
	}
	r := *c
	r.Name = fmt.Sprintf("%s-SMT%d", c.Name, ways)
	r.SMTWays = ways
	return &r
}

// TeslaV100 returns the Volta accelerator of Table III (SXM2, 16 GB HBM2,
// 900 GB/s). Latencies follow Jia et al.'s micro-benchmark study.
func TeslaV100() *GPU {
	return &GPU{
		Name:                 "Tesla V100",
		SMs:                  80,
		CoresPerSM:           64,
		ClockGHz:             1.530,
		GraphicsClockGHz:     1.290,
		MemGB:                16,
		MemBandwidthGBs:      900,
		MaxWarpsPerSM:        64,
		MaxThreadsPerSM:      2048,
		MaxBlocksPerSM:       32,
		WarpSize:             32,
		IssueRate:            1,
		IntLatency:           4,
		FPLatency:            4,
		L1HitLatency:         28,
		L2HitLatency:         193,
		MemLatency:           400,
		TLBMissPenalty:       350,
		DepartureDelayCoal:   2,
		DepartureDelayUncoal: 24,
		L1:                   CacheGeom{SizeBytes: 128 << 10, LineBytes: 128, Assoc: 4, LatencyCycle: 28},
		L2:                   CacheGeom{SizeBytes: 6 << 20, LineBytes: 128, Assoc: 16, LatencyCycle: 193},
		DefaultBlockSize:     128,
		// The OpenMP runtime launches one full occupancy wave
		// (SMs x blocks/SM); extra iterations are covered by the OpenMP
		// thread-to-iteration schedule (#OMP_Rep in the model).
		MaxGridBlocks:      80 * 32,
		ContextInitSeconds: 0.5, // paper: "upwards of 0.5 seconds" on Volta
	}
}

// TeslaP100 returns the Pascal accelerator that sat between the paper's
// two generations (SXM2, 16 GB HBM2, 732 GB/s). Included to let studies
// track the "moving target" across three generations; the paper evaluates
// Kepler and Volta.
func TeslaP100() *GPU {
	return &GPU{
		Name:                 "Tesla P100",
		SMs:                  56,
		CoresPerSM:           64,
		ClockGHz:             1.480,
		GraphicsClockGHz:     1.328,
		MemGB:                16,
		MemBandwidthGBs:      732,
		MaxWarpsPerSM:        64,
		MaxThreadsPerSM:      2048,
		MaxBlocksPerSM:       32,
		WarpSize:             32,
		IssueRate:            1.5,
		IntLatency:           6,
		FPLatency:            6,
		L1HitLatency:         82,
		L2HitLatency:         216,
		MemLatency:           440,
		TLBMissPenalty:       380,
		DepartureDelayCoal:   3,
		DepartureDelayUncoal: 30,
		L1:                   CacheGeom{SizeBytes: 24 << 10, LineBytes: 128, Assoc: 6, LatencyCycle: 82},
		L2:                   CacheGeom{SizeBytes: 4 << 20, LineBytes: 128, Assoc: 16, LatencyCycle: 216},
		DefaultBlockSize:     128,
		MaxGridBlocks:        56 * 32,
		ContextInitSeconds:   0.3,
	}
}

// NVLink1 returns the first-generation NVLink of the POWER8+P100
// "Minsky" systems.
func NVLink1() Link {
	return Link{Name: "NVLink 1.0", BandwidthGBs: 36.0, LatencySec: 3e-6}
}

// PlatformP8P100 is the intermediate generation: a POWER8 host with a
// Tesla P100 over NVLink 1 (the IBM "Minsky" S822LC-hpc).
func PlatformP8P100() Platform {
	return Platform{Name: "POWER8 + P100 (NVLink1)", CPU: POWER8(), GPU: TeslaP100(), Link: NVLink1()}
}

// TeslaK80 returns the Kepler accelerator (GK210 ×2, treated as one
// 480 GB/s device as the paper does).
func TeslaK80() *GPU {
	return &GPU{
		Name:                 "Tesla K80",
		SMs:                  26,
		CoresPerSM:           192,
		ClockGHz:             0.875,
		GraphicsClockGHz:     0.560,
		MemGB:                24,
		MemBandwidthGBs:      480,
		MaxWarpsPerSM:        64,
		MaxThreadsPerSM:      2048,
		MaxBlocksPerSM:       16,
		WarpSize:             32,
		IssueRate:            2,
		IntLatency:           9,
		FPLatency:            9,
		L1HitLatency:         35,
		L2HitLatency:         222,
		MemLatency:           520,
		TLBMissPenalty:       420,
		DepartureDelayCoal:   4,
		DepartureDelayUncoal: 40,
		L1:                   CacheGeom{SizeBytes: 48 << 10, LineBytes: 128, Assoc: 6, LatencyCycle: 35},
		L2:                   CacheGeom{SizeBytes: 1536 << 10, LineBytes: 128, Assoc: 16, LatencyCycle: 222},
		DefaultBlockSize:     128,
		MaxGridBlocks:        26 * 16, // one occupancy wave, as for V100
		ContextInitSeconds:   0.25,
	}
}

// PCIe3 returns an effective PCIe 3.0 x16 host-device link.
func PCIe3() Link {
	return Link{Name: "PCIe 3.0 x16", BandwidthGBs: 11.0, LatencySec: 12e-6}
}

// NVLink2 returns the POWER9<->V100 NVLink 2.0 link (three bricks).
func NVLink2() Link {
	return Link{Name: "NVLink 2.0", BandwidthGBs: 68.0, LatencySec: 2.5e-6}
}

// PlatformP8K80 is experimental platform 1 of the paper: POWER8 host with
// a Tesla K80 over PCIe.
func PlatformP8K80() Platform {
	return Platform{Name: "POWER8 + K80 (PCIe)", CPU: POWER8(), GPU: TeslaK80(), Link: PCIe3()}
}

// PlatformP9V100 is experimental platform 2: POWER9 host with a Tesla V100
// over NVLink 2.
func PlatformP9V100() Platform {
	return Platform{Name: "POWER9 + V100 (NVLink2)", CPU: POWER9(), GPU: TeslaV100(), Link: NVLink2()}
}

// ParsePlatform resolves a -platform flag value to one of the paper's two
// experimental platforms.
func ParsePlatform(name string) (Platform, error) {
	switch name {
	case "p9v100":
		return PlatformP9V100(), nil
	case "p8k80":
		return PlatformP8K80(), nil
	}
	return Platform{}, fmt.Errorf("machine: unknown platform %q (have p9v100|p8k80)", name)
}
