package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it, -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// Spans nest strictly (the traced calls run one after another on one
// goroutine), so a stack tracks the current parent.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// do runs fn inside a span named name, a child of the innermost open span.
func (t *tracer) do(name string, fn func()) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.origin)})
	t.open = append(t.open, i)
	defer func() {
		t.spans[i].End = time.Since(t.origin)
		t.open = t.open[:len(t.open)-1]
	}()
	fn()
}

// selfTimes returns, per span name, the span's duration minus the time
// its direct children cover, summed over spans of that name.
func selfTimes(spans []span) map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// duration returns the summed duration of the spans named name.
func duration(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// writeSpans saves the spans as JSON.
func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// profiler collects a CPU profile, the allocation profile and runtime
// totals over one traced section of the benchmark's own process.
type profiler struct {
	cpu      bytes.Buffer
	before   []metrics.Sample
	stopPeak chan struct{}
	peakDone sync.WaitGroup
	peakHeap uint64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// startProfiler begins profiling. The allocation profile counts from
// process start, so it is meant for a process whose own work before this
// point is small next to the traced section.
func startProfiler() (*profiler, error) {
	p := &profiler{stopPeak: make(chan struct{})}
	runtime.GC()
	p.before = readRuntime()
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, err
	}
	p.peakDone.Add(1)
	go func() {
		defer p.peakDone.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peakHeap {
				p.peakHeap = v
			}
			select {
			case <-p.stopPeak:
				return
			case <-tick.C:
			}
		}
	}()
	return p, nil
}

// stop ends profiling and folds the profiles into v.
func (p *profiler) stop(v values) error {
	pprof.StopCPUProfile()
	close(p.stopPeak)
	p.peakDone.Wait()
	after := readRuntime()
	const mib = 1 << 20
	v["runtime.alloc_mib"] = float64(after[0].Value.Uint64()-p.before[0].Value.Uint64()) / mib
	v["runtime.gc_cycles"] = float64(after[1].Value.Uint64() - p.before[1].Value.Uint64())
	v["runtime.gc_cpu_s"] = after[2].Value.Float64() - p.before[2].Value.Float64()
	v["runtime.peak_heap_mib"] = float64(p.peakHeap) / mib

	cpu, err := parseProfile(p.cpu.Bytes())
	if err != nil {
		return err
	}
	flat, err := cpu.foldFlat("cpu/nanoseconds")
	if err != nil {
		return err
	}
	for _, pkg := range profiledPackages {
		v[pkg+".cpu_s"] = flat[programPackage(pkg)] / 1e9
	}
	var heap bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&heap, 0); err != nil {
		return err
	}
	allocs, err := parseProfile(heap.Bytes())
	if err != nil {
		return err
	}
	cum, err := allocs.foldCum("alloc_space/bytes")
	if err != nil {
		return err
	}
	for _, pkg := range allocPackages {
		v[pkg+".alloc_mib"] = cum[programPackage(pkg)] / mib
	}
	return nil
}

// programPackage is the import path of one of the program's packages.
func programPackage(name string) string { return "manualhijack/internal/" + name }

// hostProbe times a fixed CPU-bound loop and a fixed map-heavy,
// memory-bound loop. The figures describe the host a run landed on; they
// are recorded as they are and never used to adjust a measurement.
func hostProbe() (cpuMS, memMS float64) {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	cpuMS = float64(time.Since(start).Microseconds()) / 1000
	probeSink = x

	start = time.Now()
	const n = 1 << 19
	m := make(map[uint64]uint64)
	for i := uint64(0); i < n; i++ {
		m[i*0x9E3779B97F4A7C15] = i
	}
	var sum uint64
	y := uint64(1)
	for i := 0; i < 4*n; i++ {
		y = y*6364136223846793005 + 1442695040888963407
		sum += m[(y>>45)*0x9E3779B97F4A7C15]
	}
	memMS = float64(time.Since(start).Microseconds()) / 1000
	probeSink += sum
	return cpuMS, memMS
}

// probeSink keeps the probe loops from being optimized away.
var probeSink uint64

// hostCPU reads the host's aggregate CPU time counters from /proc/stat:
// the time the hypervisor stole from this machine's CPUs, and the total.
func hostCPU() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseStat(b)
}

// parseStat reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq and steal, in that order.
func parseStat(b []byte) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, nil
}
