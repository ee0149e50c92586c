package main

import (
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared, and its cores change speed
// with what the neighbours do: a loop of pure register arithmetic takes
// anything from 0.9 to 1.8 ns a step, flipping within milliseconds and
// staying for minutes, and every other instruction stretches with it
// (README.md, "Spread"). A wall-clock timing taken there says how busy
// the host was, not what the program costs.
//
// So the benchmark times that loop — the probe — once a millisecond, and
// reports every duration in reference nanoseconds: the time the core
// needs for one step of the probe. The probe touches no memory and makes
// no call, so nothing in the program can speed it up or slow it down; it
// is the nearest thing to a cycle counter a guest may read. A stretch of
// work between two probes is a slice, and a duration inside it is divided
// by the slice's pace, the mean of the two probes in ns per step.

const (
	// probeSteps makes a probe about 6 us: long against the clock's
	// grain, short against a slice.
	probeSteps = 6000
	// sliceFor is how long a timed drive runs between two probes.
	sliceFor = time.Millisecond
)

var processStart = time.Now()

// nowNs is the wall clock: monotonic nanoseconds.
func nowNs() int64 { return int64(time.Since(processStart)) }

var probeSink uint64

// probe is four dependent multiply-add chains.
func probe() {
	var a, b, c, d uint64 = 1, 2, 3, 4
	for i := 0; i < probeSteps; i++ {
		a = a*3 + 1
		b = b*5 + 7
		c ^= a + b
		d += c >> 3
	}
	probeSink = a + b + c + d
}

// cpuNs is the process's user+system CPU time so far, from the
// scheduler's nanosecond count (getrusage rounds to the tick, which is
// longer than a slice).
func cpuNs() int64 {
	var ts syscall.Timespec
	const processCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, processCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// tick is one probe: it ran from t0 to t1, and the process's CPU time
// read cpu after it.
type tick struct{ t0, t1, cpu int64 }

// clock cuts a stretch of work into slices, one probe between each two.
// One goroutine ticks at a time; the slices are read when the work is over.
type clock struct {
	ticks []tick
}

func newClock(room int) *clock { return &clock{ticks: make([]tick, 0, room)} }

// tick runs the probe now. A nil clock does nothing, so code that is
// only sometimes timed can tick unconditionally.
func (c *clock) tick() {
	if c == nil {
		return
	}
	var t tick
	t.t0 = nowNs()
	probe()
	t.t1 = nowNs()
	t.cpu = cpuNs()
	c.ticks = append(c.ticks, t)
}

// due ticks if now is a slice's length past the last tick.
func (c *clock) due(now int64) {
	if n := len(c.ticks); n == 0 || now-c.ticks[n-1].t1 >= int64(sliceFor) {
		c.tick()
	}
}

// slice is the stretch between two ticks.
type slice struct {
	from, to int64   // wall clock: the end of one probe, the start of the next
	cpu      int64   // process CPU time spent in it, wall clock
	pace     float64 // ns per probe step while it ran
}

// ref converts a wall-clock duration inside the slice to reference ns.
func (s *slice) ref(d int64) float64 { return float64(d) / s.pace }

func (c *clock) slices() []slice {
	var out []slice
	for k := 1; k < len(c.ticks); k++ {
		a, b := c.ticks[k-1], c.ticks[k]
		probes := (a.t1 - a.t0) + (b.t1 - b.t0)
		out = append(out, slice{from: a.t1, to: b.t0,
			// The probe between two CPU readings ran flat out, so its CPU
			// time is its wall time.
			cpu:  b.cpu - a.cpu - (b.t1 - b.t0),
			pace: float64(probes) / (2 * probeSteps)})
	}
	return out
}

// sliceAt returns the index of the slice, of slices in time order, that
// instant t falls in. An instant inside a probe belongs to the slice
// after it; one outside them all to the nearest.
func sliceAt(slices []slice, t int64) int {
	i := sort.Search(len(slices), func(i int) bool { return slices[i].to >= t })
	return min(i, len(slices)-1)
}

// refAt converts a wall-clock duration that ended at instant end to
// reference ns.
func refAt(slices []slice, end, dur int64) float64 {
	return slices[sliceAt(slices, end)].ref(dur)
}

// refSum is the length of the slices in reference ns, and the CPU time
// spent in them in reference ns.
func refSum(slices []slice) (dur, cpu float64) {
	for i := range slices {
		s := &slices[i]
		dur += s.ref(s.to - s.from)
		cpu += s.ref(s.cpu)
	}
	return dur, cpu
}

// paces is the median, fastest and slowest pace of the slices: how fast
// the host's core ran, and how far it moved.
func paces(slices []slice) (mid, fastest, slowest float64) {
	p := make([]float64, len(slices))
	for i := range slices {
		p[i] = slices[i].pace
	}
	sort.Float64s(p)
	if len(p) == 0 {
		return 0, 0, 0
	}
	return p[len(p)/2], p[0], p[len(p)-1]
}
