// Command perfbench is the repository's benchmark. It runs one workload —
// study, analyze or riskd — against binaries built from the checkout,
// checks every output, and prints one JSON result line:
//
//	perfbench --workload study --seed 3 --seconds 20 --trace 0
//
// With --trace 0 it runs the shipped commands untraced and reports the
// end-to-end metrics; with --trace 1 it runs the same work once more
// in-process, with a span around each layer call and CPU/alloc profiles
// folded by package, and reports the per-layer metrics. See README.md.
//
// It expects to run from the repository root after perfbench/run.sh has
// built the commands into .bench_build/bin.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	buildDir = ".bench_build"
	// runBudget bounds one benchmark run, input generation included.
	runBudget = 170 * time.Second
	// minReps is the fewest measured repetitions a run makes, however
	// long each takes: three, so one repetition slowed by a noisy
	// neighbour cannot move the median.
	minReps = 3
	// minStudyReps is the same floor for study, whose peak RSS varies by
	// up to a quarter between repetitions of one seed (GC timing against
	// the parallel eras and spill writers), so its median needs more.
	minStudyReps = 5
)

// roster fields every playbook archetype once next to the manual crews.
var roster = strings.Join([]string{
	"datathief:1", "hopper:1", "impaas:1", "lateralphisher:1", "lowslow:1",
	"ransomer:1", "sleeper:1", "smashgrab:1", "spamcannon:1", "stuffer:1",
}, ",")

// env is one run's settings.
type env struct {
	seed    int64
	seconds time.Duration
	nproc   int
}

// binPath, workPath and cachePath name the built commands, scratch files
// and per-checkout caches under buildDir.
func binPath(name string) string   { return filepath.Join(buildDir, "bin", name) }
func workPath(name string) string  { return filepath.Join(buildDir, "work", name) }
func cachePath(name string) string { return filepath.Join(buildDir, "cache", name) }

// outcome accumulates a run's measurements and its operation counts.
type outcome struct {
	v         values
	attempted int64
	failed    int64
	correct   bool
}

func newOutcome() *outcome { return &outcome{v: values{}, correct: true} }

// wrong records n failed operations from a check that must never fail; it
// marks the whole run incorrect.
func (o *outcome) wrong(n int64, format string, args ...any) {
	o.failed += n
	o.correct = false
	fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: "+format+"\n", args...)
}

type workload struct {
	run   func(ctx context.Context, e *env) (*outcome, error)
	trace func(ctx context.Context, e *env) (*outcome, error)
}

var workloads = map[string]workload{
	"study":   {runStudy, traceStudy},
	"analyze": {runAnalyze, traceAnalyze},
	"riskd":   {runRiskd, traceRiskd},
}

func main() {
	name := flag.String("workload", "", "workload to run: analyze, riskd or study")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "how long to keep repeating the measured work")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	w, ok := workloads[name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, nproc: runtime.NumCPU()}
	runtime.GOMAXPROCS(e.nproc)
	for _, b := range []string{"hijacksim", "hijackstudy", "analyze", "riskd", "riskload"} {
		if _, err := os.Stat(binPath(b)); err != nil {
			return fmt.Errorf("missing %s (build with perfbench/run.sh): %w", binPath(b), err)
		}
	}
	for _, d := range []string{workPath(""), cachePath("")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}

	steal0, total0, statErr := hostCPU()
	cpuMS, memMS := hostProbe()
	fmt.Printf("host-probe: ref_cpu_ms=%.3f ref_mem_ms=%.3f nproc=%d\n", cpuMS, memMS, e.nproc)

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	do, catalog := w.run, endToEnd
	if trace == 1 {
		do, catalog = w.trace, perLayer()
	}
	o, err := do(ctx, e)
	if err != nil {
		return err
	}
	// The share of the host's CPU time the hypervisor stole during the run:
	// like the probes it explains drift and adjusts nothing.
	var stealShare float64
	if steal1, total1, err := hostCPU(); statErr == nil && err == nil {
		stealShare = ratio(float64(steal1-steal0), float64(total1-total0))
		fmt.Printf("host-steal: share=%.4f\n", stealShare)
	}
	if trace == 1 {
		o.v["host.ref_cpu_ms"] = cpuMS
		o.v["host.ref_mem_ms"] = memMS
		o.v["host.steal_share"] = stealShare
	}
	m, err := build(catalog, o.v)
	if err != nil {
		return err
	}
	if o.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	return writeResult(os.Stdout, result{
		Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: m,
	})
}

// repeat runs rep at least atLeast times and until the run's measuring time
// has passed. A repetition that has started always finishes.
func repeat(ctx context.Context, e *env, atLeast int, rep func() error) error {
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < e.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := rep(); err != nil {
			return err
		}
	}
	return nil
}

// logSample records one repetition's measurements on stderr, so every
// sample behind a median stays on record.
func logSample(workload string, kv ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %s sample:", workload)
	for i := 0; i+1 < len(kv); i += 2 {
		fmt.Fprintf(os.Stderr, " %v=%v", kv[i], kv[i+1])
	}
	fmt.Fprintln(os.Stderr)
}

// median returns the middle of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
