package core

import (
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/logstore"
	"manualhijack/internal/recovery"
)

// StudyConfig controls the full measurement campaign.
type StudyConfig struct {
	Seed int64
	// Scale shrinks (or, above 1, grows) populations and phishing volume;
	// 1.0 is the full study. Values above 1 exist for spill stress
	// benchmarks — the report still computes, but its published-value
	// comparisons are calibrated to scale <= 1.
	Scale float64
	// SampleSize caps per-dataset samples (the paper's Table 1 sizes are
	// used at scale 1).
	DecoyN int
	// Parallelism bounds the worker pool that runs the era worlds and
	// fans out the read-only analyses: 0 means GOMAXPROCS, 1 is the
	// legacy sequential engine. Every setting produces a byte-identical
	// StudyReport for the same Seed — each world owns an independent
	// seed and log, and each analysis writes its own report field.
	Parallelism int
	// SpillDir, when set, runs every era world with a spill-to-disk
	// segmented log (one subdirectory per era) so peak RAM is bounded by
	// the segment size instead of the world size, and the analyses read
	// the segment files back in one ordered pass per era. The report is
	// byte-identical to a monolithic run of the same Seed.
	SpillDir string
	// SegmentRecords caps records per segment (0 = logstore default);
	// SegmentBytes optionally seals on encoded size instead. SpillGzip
	// compresses segment files.
	SegmentRecords int
	SegmentBytes   int64
	SpillGzip      bool
	// SpillWriters sizes each world's background segment encode/write
	// pool; ScanWorkers sets how many segments the analysis scans decode
	// ahead (0 = logstore defaults of 1 each). Neither affects report
	// bytes — only how much of the spill tax overlaps other work.
	SpillWriters int
	ScanWorkers  int
	// Archetypes fields playbook actors in every era world, next to each
	// era's manual-crew roster (counts are not scaled — archetype
	// instances are actors, not population).
	Archetypes []ArchetypeSpec
}

// spillFor derives one era world's spill configuration, or the zero value
// (spilling off) when the study is monolithic.
func (sc StudyConfig) spillFor(era string) logstore.SpillConfig {
	if sc.SpillDir == "" {
		return logstore.SpillConfig{}
	}
	return logstore.SpillConfig{
		Dir:            filepath.Join(sc.SpillDir, era),
		SegmentRecords: sc.SegmentRecords,
		SegmentBytes:   sc.SegmentBytes,
		Compress:       sc.SpillGzip,
		Writers:        sc.SpillWriters,
		ScanWorkers:    sc.ScanWorkers,
	}
}

// DefaultStudyConfig is the full-scale study.
func DefaultStudyConfig(seed int64) StudyConfig {
	return StudyConfig{Seed: seed, Scale: 1.0, DecoyN: 200}
}

// StudyReport holds every reproduced table and figure, plus the era
// retention comparison and the defense evaluations.
type StudyReport struct {
	// §4 — attack vectors.
	Table2   analysis.Table2
	URLShare float64
	Fig3     analysis.Figure3
	Fig4     analysis.Figure4
	Fig5     analysis.Figure5
	Fig6     analysis.Figure6

	// §5 — exploitation.
	Fig7          analysis.Figure7
	Fig8          analysis.Figure8
	Table3        analysis.Table3
	Assessment    analysis.Assessment
	Exploitation  analysis.Exploitation
	ContactRisk   analysis.ContactRisk
	Retention2011 analysis.Retention
	Retention2012 analysis.Retention

	// §6 — remediation.
	Fig9      analysis.Figure9
	Fig10     analysis.Figure10
	Channels  analysis.RecoveryChannels
	Remission analysis.RemissionStats

	// §7 — attribution.
	Fig11 analysis.Figure11
	Fig12 analysis.Figure12

	// §3 / §8 — base rates and defense evaluation.
	BaseRates analysis.BaseRates
	Behavior  analysis.DetectionEval
	RiskSweep []analysis.RiskOperatingPoint
	// ArchetypeScorecard is the per-archetype detection scorecard (2012
	// world): recall, time-to-detect, and the owner-side FP cost. Empty
	// rows when no archetypes are fielded.
	ArchetypeScorecard analysis.ArchetypeScorecard

	// §5.5 — the "ordinary office job" evidence, and the doppelganger
	// review defense of §5.4.
	Schedule     analysis.WorkSchedule
	Doppelganger analysis.DoppelgangerEval

	// The scam funnel: pleas → replies → reached crew → wires.
	Monetization analysis.Monetization

	// Figure 2's overall hijacking cycle, as a survival funnel.
	Lifecycle analysis.Lifecycle

	// Worlds' raw sizes, for the report header.
	Events2011, Events2012, Events2013, Events2014 int
}

// scaleInt scales a count, keeping at least min. Rounding (not truncating)
// keeps float representation error from dropping a unit: 3000×0.3 is
// 899.9999…, which truncation would turn into 899 and quietly
// under-populate an era.
func scaleInt(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

// era builds a world config for one observation window.
func (sc StudyConfig) era(start time.Time, days, pop int, crews []CrewSpec, campaignsPerDay float64, lureBase int) Config {
	cfg := DefaultConfig(sc.Seed + int64(start.Year()*100+int(start.Month())))
	cfg.Start = start
	cfg.Days = days
	cfg.PopulationN = scaleInt(pop, sc.Scale, 500)
	cfg.Crews = crews
	cfg.CampaignsPerDay = campaignsPerDay * sc.Scale
	cfg.LureBase = lureBase
	cfg.Archetypes = sc.Archetypes
	return cfg
}

// world2011 runs October–December 2011: the retention-tactic baseline and
// the Dataset 9 contact-risk experiment (cohorts formed after 15 days,
// outcomes over the following 60).
func (sc StudyConfig) world2011() *World {
	cfg := sc.era(
		time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC), 75, 20000,
		Roster2011(), 12, 350)
	cfg.Recovery = recovery.Config2011()
	cfg.CampaignDays = 15 // background phishing only while cohorts form
	cfg.Spill = sc.spillFor("2011")
	w := NewWorld(cfg)
	w.Run()
	return w
}

// world2012 runs November 2012: the era most datasets come from (4–8,
// 11), plus the decoy experiment and the Forms-page HTTP analyses.
func (sc StudyConfig) world2012() *World {
	cfg := sc.era(
		time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC), 30, 12000,
		Roster2012(), 30, 420)
	cfg.DecoyN = scaleInt(sc.DecoyN, sc.Scale, 40)
	cfg.Spill = sc.spillFor("2012")
	w := NewWorld(cfg)
	w.InjectDecoys(20 * 24 * time.Hour)
	w.Run()
	return w
}

// world2013 runs February 2013: a month of recovery claims (Dataset 12,
// Figure 10).
func (sc StudyConfig) world2013() *World {
	cfg := sc.era(
		time.Date(2013, 2, 1, 0, 0, 0, 0, time.UTC), 28, 8000,
		Roster2012(), 22, 420)
	cfg.Spill = sc.spillFor("2013")
	w := NewWorld(cfg)
	w.Run()
	return w
}

// world2014 runs January 2014: attribution (Dataset 13) and the curated
// phishing email/page review (Datasets 1–2, Table 2).
func (sc StudyConfig) world2014() *World {
	cfg := sc.era(
		time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC), 30, 10000,
		Roster2014(), 25, 420)
	// No outlier campaigns here: their 6× lure volume makes the Table 2
	// email sample lumpy, and Figure 6 is computed from the 2012 world.
	cfg.OutlierShare = 0
	cfg.Spill = sc.spillFor("2014")
	w := NewWorld(cfg)
	w.Run()
	return w
}

// worldBase runs the separate low-intensity world calibrated to the
// paper's ~9 hijacks per million active users per day — the era worlds
// run at boosted phishing intensity for statistical power (documented in
// EXPERIMENTS.md).
func (sc StudyConfig) worldBase() *World {
	cfg := sc.era(
		time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC), 30, 20000,
		Roster2012(), 0.9, 100)
	cfg.Spill = sc.spillFor("base")
	w := NewWorld(cfg)
	w.Run()
	return w
}

// runAll executes jobs on at most par workers. par <= 1 runs them
// sequentially in order (the legacy engine). Jobs must write to disjoint
// state; the pool provides only the completion barrier.
func runAll(par int, jobs []func()) {
	if par <= 1 || len(jobs) < 2 {
		for _, job := range jobs {
			job()
		}
		return
	}
	if par > len(jobs) {
		par = len(jobs)
	}
	next := make(chan func())
	var wg sync.WaitGroup
	wg.Add(par)
	for i := 0; i < par; i++ {
		go func() {
			defer wg.Done()
			for job := range next {
				job()
			}
		}()
	}
	for _, job := range jobs {
		next <- job
	}
	close(next)
	wg.Wait()
}

// RunStudy executes the four observation windows and computes every
// artifact from the era-appropriate world, mirroring how the paper's
// datasets were drawn from different time windows of Google's logs
// (Table 1) and aggregated via map-reduce.
//
// The engine has two parallel phases. First the five era worlds run
// concurrently — each owns an independent seed, clock, and log, so the
// phase is wall-clock-bound by the slowest era instead of the sum of all
// five. Then each sealed log is analyzed as one job on the worker pool,
// its registry builders fanned out over every segment (registry.go).
// Both phases are deterministic at any parallelism: every analysis writes
// a distinct StudyReport field, so the report is byte-identical for a
// fixed Seed whatever StudyConfig.Parallelism says.
func RunStudy(sc StudyConfig) *StudyReport {
	if sc.Scale <= 0 {
		sc.Scale = 1
	}
	par := sc.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	r := &StudyReport{}

	var w2011, w2012, w2013, w2014, wBase *World
	runAll(par, []func(){
		func() { w2011 = sc.world2011() },
		func() { w2012 = sc.world2012() },
		func() { w2013 = sc.world2013() },
		func() { w2014 = sc.world2014() },
		func() { wBase = sc.worldBase() },
	})
	r.Events2011 = w2011.Log.Len()
	r.Events2012 = w2012.Log.Len()
	r.Events2013 = w2013.Log.Len()
	r.Events2014 = w2014.Log.Len()

	// Fan the shared analysis registry (registry.go) out over the sealed
	// logs, each entry against its era's world.
	inputs := [eraCount]AnalysisInput{
		Era2011: worldInput(w2011, sc.Scale),
		Era2012: worldInput(w2012, sc.Scale),
		Era2013: worldInput(w2013, sc.Scale),
		Era2014: worldInput(w2014, sc.Scale),
		EraBase: worldInput(wBase, sc.Scale),
	}
	jobs, _ := analysisJobs(func(e Era) AnalysisInput { return inputs[e] }, r, par)
	runAll(par, jobs)

	return r
}
