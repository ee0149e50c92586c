package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// sample is one completed call: its number in the drive, when it
// returned, how long the caller waited for it, and how many correct
// verdicts it carried.
type sample struct {
	end, lat int64
	call, ok int32
}

// recording is what a drive keeps: every call's sample, and the clock
// whose probes cut the drive into slices. The samples live outside the
// Go heap: on it they would be most of the live heap, and the garbage
// collector would pace itself by the benchmark's bookkeeping and not by
// the program's own few megabytes.
type recording struct {
	mu      sync.Mutex // callers share one recording
	samples []sample
	mem     []byte
	clock   *clock
}

func newRecording(room int) (*recording, error) {
	mem, err := syscall.Mmap(-1, 0, room*int(unsafe.Sizeof(sample{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("room for %d samples: %w", room, err)
	}
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 0 // fault every page in now, off the clock
	}
	return &recording{mem: mem, clock: newClock(0),
		samples: unsafe.Slice((*sample)(unsafe.Pointer(&mem[0])), room)[:0]}, nil
}

func (r *recording) free() {
	_ = syscall.Munmap(r.mem) // the process is about to exit, or the test to end
	r.samples, r.mem = nil, nil
}

// reset empties the recording and makes room for a drive of d.
func (r *recording) reset(d time.Duration) {
	r.samples = r.samples[:0]
	if room := int(d/sliceFor)*2 + 64; cap(r.clock.ticks) < room {
		r.clock.ticks = make([]tick, 0, room)
	}
	r.clock.ticks = r.clock.ticks[:0]
}

// add keeps one call's sample and ticks the clock when a slice is over.
// It reports whether there is room for another.
func (r *recording) add(s sample) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == cap(r.samples) {
		return false
	}
	r.samples = append(r.samples, s)
	r.clock.due(s.end)
	return len(r.samples) < cap(r.samples)
}

// drive is the closed loop: spec.inflight callers share the world's one
// connection, each making its next call only when its last returned.
// Calls are numbered from `from`; call j starts at decision j*perCall.
// With count > 0 exactly that many calls are made, otherwise callers
// stop once d has elapsed or rec is full. It returns the tally and the
// number of the next unused call.
func (w *world) drive(from, count int, d time.Duration, rec *recording) (tally, int) {
	callers := w.spec.inflight
	per := w.spec.perCall()
	tallies := make([]tally, callers)
	last := make([]int, callers)
	var wg sync.WaitGroup
	if rec != nil {
		rec.clock.tick()
	}
	start := nowNs()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, t := &caller{}, &tallies[c]
			j := from + c
			for ; count == 0 || j < from+count; j += callers {
				w.beforeCall(j)
				t0 := nowNs()
				if count == 0 && t0-start >= int64(d) {
					break
				}
				failed := t.failed
				err := w.conn.call(cl, j*per, t)
				t1 := nowNs()
				room := rec == nil || rec.add(sample{end: t1, lat: t1 - t0, call: int32(j - from), ok: int32(per - (t.failed - failed))})
				if err != nil || !room {
					j += callers
					break
				}
			}
			last[c] = j
		}(c)
	}
	wg.Wait()
	if rec != nil {
		rec.clock.tick()
	}
	var sum tally
	next := from
	for c := range tallies {
		sum.add(tallies[c])
		next = max(next, last[c])
	}
	return sum, next
}

// beforeCall is the generator's half of stream-single-miss: one
// InvalidateDecisions per invalidateEvery calls, regions round-robin.
func (w *world) beforeCall(j int) {
	if e := w.spec.invalidateEvery; e > 0 && j%e == 0 {
		invalidate(w.rts[0], w.conn.gen, j/e)
	}
}

// A timed drive is cut into windows of windowFor, and its figures are
// taken over its quiet windows alone: the quietShare of them in which
// the program got the most done per reference second. What the
// neighbours do to the host only ever slows the program down, and the
// part of it the probe cannot see — their traffic through the shared
// cache and memory — comes and goes within seconds; the windows where
// the program ran fastest are the ones they disturbed least. A window is
// long against everything periodic in the program itself (a garbage
// collection cycle of batch-cold, the longest, is 160 ms; a gossip round
// 200 ms), so choosing among windows chooses among states of the host,
// not among phases of the program.
const (
	windowFor  = 500 * time.Millisecond
	quietShare = 0.2
)

// window is one windowFor of a timed drive, in reference time.
type window struct {
	ok       int       // correct verdicts
	dur, cpu float64   // its length and the process's CPU time in it
	lats     []float64 // every call that returned in it
}

func (w *window) rate() float64 { return float64(w.ok) / w.dur }

// windows cuts the recorded drive into windows, each call's latency
// divided by the pace of the slice it returned in. A last window under
// half the length is dropped, unless it is the only one.
func (r *recording) windows(slices []slice) []window {
	var wins []window
	of := make([]int, len(slices)) // window of each slice
	var from int64
	for i := range slices {
		s := &slices[i]
		if len(wins) == 0 || s.from-from >= int64(windowFor) {
			wins = append(wins, window{})
			from = s.from
		}
		w := &wins[len(wins)-1]
		w.dur += s.ref(s.to - s.from)
		w.cpu += s.ref(s.cpu)
		of[i] = len(wins) - 1
	}
	for _, smp := range r.samples {
		i := sliceAt(slices, smp.end)
		w := &wins[of[i]]
		w.ok += int(smp.ok)
		w.lats = append(w.lats, slices[i].ref(smp.lat))
	}
	if n := len(wins); n > 1 && slices[len(slices)-1].to-from < int64(windowFor)/2 {
		wins = wins[:n-1]
	}
	return wins
}

// quiet returns the quietShare of the windows with the highest rate, at
// least one.
func quiet(wins []window) []window {
	sort.Slice(wins, func(i, j int) bool { return wins[i].rate() > wins[j].rate() })
	return wins[:max(int(quietShare*float64(len(wins))+0.5), 1)]
}

// timed reduces a recorded drive to its timed figures, all in reference
// time and all over the drive's quiet windows: throughput is correct
// verdicts over the windows' length (the probes between slices are not
// the program's time), CPU time likewise, and the latency quantiles are
// over every call that returned in them. The tails that are reported
// but not gated, and the median the traced pass is held against, are
// over every call of the drive.
func (r *recording) timed() map[string]float64 {
	slices := r.clock.slices()
	if len(slices) == 0 || len(r.samples) == 0 {
		return map[string]float64{}
	}
	wins := r.windows(slices)
	var all, lats []float64
	for i := range wins {
		all = append(all, wins[i].lats...)
	}
	var ok int
	var dur, cpu float64
	for _, w := range quiet(wins) {
		ok += w.ok
		dur += w.dur
		cpu += w.cpu
		lats = append(lats, w.lats...)
	}
	sort.Float64s(all)
	sort.Float64s(lats)
	mid, fastest, slowest := paces(slices)
	return map[string]float64{
		"decisions_per_s":        float64(ok) / dur * 1e9,
		"cpu_us_per_decision":    cpu / 1e3 / float64(max(ok, 1)),
		"latency_p50_us":         quantile(lats, 0.50) / 1e3,
		"latency_p90_us":         quantile(lats, 0.90) / 1e3,
		"trace.untraced_p50_us":  quantile(all, 0.50) / 1e3,
		"client.latency_p99_us":  quantile(all, 0.99) / 1e3,
		"client.latency_p999_us": quantile(all, 0.999) / 1e3,
		"host.pace":              mid,
		"host.pace_fastest":      fastest,
		"host.pace_slowest":      slowest,
	}
}

// repetition is one timed stretch of a workload.
type repetition struct {
	tally    tally
	values   map[string]float64 // every end-to-end metric but setup_s, the client.latency_* tails, the host's pace
	counters map[string]float64 // public counters, after minus before
}

// measure times one repetition of d.
func (w *world) measure(from int, d time.Duration, rec *recording) (repetition, int) {
	rec.reset(d)
	before := w.counters()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t, next := w.drive(from, 0, d, rec)
	runtime.ReadMemStats(&m1)
	rep := repetition{tally: t, counters: map[string]float64{}, values: rec.timed()}
	accumulate(rep.counters, before, w.counters())
	decisions := float64(max(t.attempted-t.failed, 1))
	rep.values["allocs_per_decision"] = float64(m1.Mallocs-m0.Mallocs) / decisions
	rep.values["alloc_bytes_per_decision"] = float64(m1.TotalAlloc-m0.TotalAlloc) / decisions
	rep.values["correct_share"] = 1 - float64(t.failed)/float64(max(t.attempted, 1))
	return rep, next
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(q*float64(len(asc))+0.999999) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
