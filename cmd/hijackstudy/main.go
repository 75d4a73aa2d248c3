// Command hijackstudy runs the full reproduction study — four
// observation-window worlds (Oct 2011, Nov 2012, Feb 2013, Jan 2014) plus
// a low-intensity base-rate world — and prints every table and figure of
// the paper with the published value alongside the measured one.
//
// Usage:
//
//	hijackstudy [-seed N] [-scale F] [-par N] [-spill-dir d]
//	            [-archetypes smashgrab:3,stuffer:2]
//	            [-segment-records N] [-segment-bytes N] [-segment-gzip]
//	            [-spill-writers N] [-scan-workers N]
//	            [-cpuprofile f] [-memprofile f] [-trace f]
//
// -archetypes fields playbook actors (internal/playbook) in every era
// world next to the era's manual-crew roster; the §8.1 block of the report
// then includes the per-archetype detection scorecard.
//
// -scale shrinks populations and phishing volume for quick runs (0.2 runs
// in well under a minute; 1.0 is the full study; values above 1 grow the
// worlds past the paper's scale for spill stress benchmarks — the report
// prints but its published-value comparisons only make sense at <= 1).
// -par bounds the study engine's worker pool (0 = GOMAXPROCS, 1 =
// sequential); the report is byte-identical for a fixed seed at any
// setting.
//
// -spill-dir runs every era world with a spill-to-disk segmented log (one
// subdirectory per era) so peak RSS is bounded by the segment size
// instead of the world size; the analyses read the segment files back in
// one ordered pass per era and the report stays byte-identical to the
// monolithic run. -spill-writers sizes the background segment encode/write pool and
// -scan-workers the analysis scans' decode-ahead depth — both trade
// goroutines for wall-clock without touching report bytes. The footer
// reports the process's peak RSS either way, so the two modes are
// directly comparable.
//
// The profiling flags capture pprof CPU/heap profiles and a runtime trace
// of the whole run (study + report rendering) for `go tool pprof` /
// `go tool trace`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/playbook"
	"manualhijack/internal/profiling"
	"manualhijack/internal/report"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	scale := flag.Float64("scale", 1.0, "study scale in (0,1]")
	par := flag.Int("par", 0, "study parallelism (0 = GOMAXPROCS, 1 = sequential)")
	archetypes := flag.String("archetypes", "",
		"playbook actor roster for every era world, e.g. smashgrab:3,stuffer:2 (known: "+strings.Join(playbook.Names(), ",")+")")
	spillDir := flag.String("spill-dir", "",
		"run every era world with a spill-to-disk segmented log under this directory (bounded RAM, identical report)")
	segRecords := flag.Int("segment-records", 0, "records per spilled segment (0 = logstore default)")
	segBytes := flag.Int64("segment-bytes", 0, "additionally seal segments at this encoded byte size (0 = off)")
	segGzip := flag.Bool("segment-gzip", false, "gzip spilled segment files")
	spillWriters := flag.Int("spill-writers", 0, "background segment encode/write goroutines per world (0 = 1)")
	scanWorkers := flag.Int("scan-workers", 0, "segments decoded ahead during analysis scans (0 = 1)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocs profile to this file at exit")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	if *scale <= 0 {
		fmt.Fprintln(os.Stderr, "hijackstudy: -scale must be > 0")
		os.Exit(2)
	}
	if *par < 0 {
		fmt.Fprintln(os.Stderr, "hijackstudy: -par must be >= 0")
		os.Exit(2)
	}
	stopProfiles, err := profiling.Start(profiling.Config{
		CPUProfile: *cpuprofile, MemProfile: *memprofile, Trace: *traceOut,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hijackstudy: %v\n", err)
		os.Exit(1)
	}
	sc := core.DefaultStudyConfig(*seed)
	sc.Scale = *scale
	sc.Parallelism = *par
	sc.SpillDir = *spillDir
	sc.SegmentRecords = *segRecords
	sc.SegmentBytes = *segBytes
	sc.SpillGzip = *segGzip
	sc.SpillWriters = *spillWriters
	sc.ScanWorkers = *scanWorkers
	roster, err := playbook.ParseRoster(*archetypes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hijackstudy: %v\n", err)
		os.Exit(2)
	}
	for _, entry := range roster {
		sc.Archetypes = append(sc.Archetypes, core.ArchetypeSpec{
			Archetype: entry.Archetype, Count: entry.Count,
		})
	}

	start := time.Now()
	r := core.RunStudy(sc)
	report.RenderStudy(os.Stdout, r)
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "hijackstudy: %v\n", err)
		os.Exit(1)
	}
	effPar := *par
	if effPar == 0 {
		effPar = runtime.GOMAXPROCS(0)
	}
	mode := "monolithic"
	if *spillDir != "" {
		mode = "spill"
	}
	fmt.Printf("\nstudy completed in %s (seed=%d scale=%.2f parallelism=%d log=%s)\n",
		time.Since(start).Round(time.Millisecond), *seed, *scale, effPar, mode)
	if rss := profiling.PeakRSS(); rss > 0 {
		// Machine-parseable: scripts/bench.sh records this figure.
		fmt.Printf("peak-rss-mib: %d\n", rss/(1<<20))
	}
}
