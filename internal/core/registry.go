package core

import (
	"runtime"
	"time"

	"manualhijack/internal/analysis"
	"manualhijack/internal/behavior"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
)

// The analysis registry is the single list of every study analysis.
// RunStudy iterates it with era-appropriate world inputs, and cmd/analyze
// iterates it over a single dumped log — one source of truth, so the
// in-process and offline pipelines cannot drift.

// Era identifies which observation-window world an analysis draws from in
// the full study (Table 1's datasets come from different time windows).
type Era int

const (
	Era2011 Era = iota // October–December 2011: retention baseline, contact risk
	Era2012            // November 2012: most datasets, decoys, Forms pages
	Era2013            // February 2013: recovery claims
	Era2014            // January 2014: attribution, curated phishing review
	EraBase            // low-intensity world calibrated to the paper's base rates
	eraCount
)

func (e Era) String() string {
	switch e {
	case Era2011:
		return "2011"
	case Era2012:
		return "2012"
	case Era2013:
		return "2013"
	case Era2014:
		return "2014"
	case EraBase:
		return "base"
	}
	return "?"
}

// AnalysisInput is everything a registry analysis may read. Log is always
// set. Start/End bound the observation window — offline loads take them
// from the dump header, because the first record's timestamp is not the
// window start. Plan is the synthetic IP plan (deterministic, so offline
// callers reconstruct it with DefaultIPPlan). Dir is the live account
// directory; it is nil for offline replay, which disables the NeedsDir
// analyses — population state never reaches the event log.
type AnalysisInput struct {
	Log   *logstore.Store
	Start time.Time
	End   time.Time
	Plan  *geo.IPPlan
	Dir   *identity.Directory
	// Scale is the study's sample-size scale; 0 means 1.0.
	Scale float64
}

// Analysis is one registry entry: a named computation that reads an
// AnalysisInput and writes exactly one StudyReport field — the property
// that makes the fan-out deterministic at any parallelism.
type Analysis struct {
	Name string
	Era  Era
	// NeedsDir marks analyses that consult the live directory (contact
	// graphs, secondary-email state, activity). They are skipped when
	// replaying a dumped log, where only events survive.
	NeedsDir bool
	// Run is unset on every entry and ignored by the runner: every
	// analysis is builder-form (Stream). The field stays declared only
	// because perfbench/analyze.go still names it.
	Run func(in AnalysisInput, r *StudyReport)
	// Stream returns the analysis's incremental builder. The runner feeds
	// every builder of one log from a single ordered scan and then
	// finalizes it into its report field.
	Stream func(in AnalysisInput) StreamAnalysis
}

// StreamAnalysis is one analysis in builder form: events are folded in one
// at a time (in log order) and the result is written to its report field
// at the end. Builders are single-goroutine; the runner never feeds one
// builder from two goroutines at once.
type StreamAnalysis interface {
	Observe(e event.Event)
	Finalize(r *StudyReport)
}

// built pairs a concrete builder with the finalizer that writes its
// report field.
type built[B interface{ Observe(event.Event) }] struct {
	b        B
	finalize func(B, *StudyReport)
}

func (a built[B]) Observe(e event.Event)   { a.b.Observe(e) }
func (a built[B]) Finalize(r *StudyReport) { a.finalize(a.b, r) }

// builder packages a builder constructor and its finalizer as the
// registry's StreamAnalysis.
func builder[B interface{ Observe(event.Event) }](newB func() B, finalize func(B, *StudyReport)) StreamAnalysis {
	return built[B]{b: newB(), finalize: finalize}
}

// riskSweepThresholds is the §8.1 operating-point grid.
var riskSweepThresholds = []float64{0.3, 0.4, 0.5, 0.58, 0.62, 0.7, 0.8, 0.9}

// registry holds every analysis of the study, in report order. Every entry
// is builder-form, so one definition serves the in-RAM, the segmented and
// the online-streaming paths.
var registry = []Analysis{
	// ---- 2011 era ----
	{Name: "retention-2011", Era: Era2011, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewRetentionBuilder, func(b *analysis.RetentionBuilder, r *StudyReport) {
			r.Retention2011 = b.Retention(600)
		})
	}},
	{Name: "contact-risk", Era: Era2011, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewContactRiskBuilder, func(b *analysis.ContactRiskBuilder, r *StudyReport) {
			// Cohorts form four days after background campaigns stop, so the
			// backlog of mass-campaign conversions is flushed and the outcome
			// window isolates the hijacker contact-targeting loop.
			cutoff := in.Start.Add(19 * 24 * time.Hour)
			r.ContactRisk = b.ContactRisk(
				in.Dir, cutoff, 8*24*time.Hour, 56*24*time.Hour,
				scaleInt(3000, in.Scale, 200))
		})
	}},

	// ---- 2012 era — the big fan-out ----
	{Name: "figure-3", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewFigure3Builder, func(b *analysis.Figure3Builder, r *StudyReport) {
			r.Fig3 = b.Figure3(100)
		})
	}},
	{Name: "figure-4", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewFigure4Builder, func(b *analysis.Figure4Builder, r *StudyReport) {
			r.Fig4 = b.Figure4(100)
		})
	}},
	{Name: "figure-5", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewFigure5Builder, func(b *analysis.Figure5Builder, r *StudyReport) {
			r.Fig5 = b.Figure5(100, 25)
		})
	}},
	{Name: "figure-6", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewFigure6Builder, func(b *analysis.Figure6Builder, r *StudyReport) {
			r.Fig6 = b.Figure6(analysis.DefaultFigure6SamplePages)
		})
	}},
	{Name: "figure-7", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewFigure7Builder, func(b *analysis.Figure7Builder, r *StudyReport) {
			r.Fig7 = b.Figure7()
		})
	}},
	{Name: "figure-8", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewFigure8Builder, func(b *analysis.Figure8Builder, r *StudyReport) {
			r.Fig8 = b.Figure8()
		})
	}},
	{Name: "table-3", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewTable3Builder, func(b *analysis.Table3Builder, r *StudyReport) {
			r.Table3 = b.Table3()
		})
	}},
	{Name: "assessment", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewAssessmentBuilder, func(b *analysis.AssessmentBuilder, r *StudyReport) {
			r.Assessment = b.Assessment(575)
		})
	}},
	{Name: "exploitation", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewExploitationBuilder, func(b *analysis.ExploitationBuilder, r *StudyReport) {
			r.Exploitation = b.Exploitation(575)
		})
	}},
	{Name: "retention-2012", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewRetentionBuilder, func(b *analysis.RetentionBuilder, r *StudyReport) {
			r.Retention2012 = b.Retention(575)
		})
	}},
	{Name: "figure-9", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewFigure9Builder, func(b *analysis.Figure9Builder, r *StudyReport) {
			r.Fig9 = b.Figure9(5000)
		})
	}},
	{Name: "figure-12", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewFigure12Builder, func(b *analysis.Figure12Builder, r *StudyReport) {
			r.Fig12 = b.Figure12(300)
		})
	}},
	{Name: "behavior-detector", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(func() *analysis.BehaviorEvalBuilder {
			return analysis.NewBehaviorEvalBuilder(behavior.DefaultConfig())
		}, func(b *analysis.BehaviorEvalBuilder, r *StudyReport) {
			r.Behavior = b.DetectionEval()
		})
	}},
	{Name: "risk-sweep", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(func() *analysis.RiskSweepBuilder {
			return analysis.NewRiskSweepBuilder(riskSweepThresholds)
		}, func(b *analysis.RiskSweepBuilder, r *StudyReport) {
			r.RiskSweep = b.Sweep()
		})
	}},
	{Name: "work-schedule", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewWorkScheduleBuilder, func(b *analysis.WorkScheduleBuilder, r *StudyReport) {
			r.Schedule = b.WorkSchedule()
		})
	}},
	{Name: "doppelganger", Era: Era2012, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(func() *analysis.DoppelgangerBuilder {
			return analysis.NewDoppelgangerBuilder(in.Dir, 0.75)
		}, func(b *analysis.DoppelgangerBuilder, r *StudyReport) {
			r.Doppelganger = b.DoppelgangerEval()
		})
	}},
	{Name: "monetization", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewMonetizationBuilder, func(b *analysis.MonetizationBuilder, r *StudyReport) {
			r.Monetization = b.Monetization()
		})
	}},
	{Name: "lifecycle", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewLifecycleBuilder, func(b *analysis.LifecycleBuilder, r *StudyReport) {
			r.Lifecycle = b.Lifecycle()
		})
	}},
	{Name: "archetype-scorecard", Era: Era2012, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewArchetypeScorecardBuilder, func(b *analysis.ArchetypeScorecardBuilder, r *StudyReport) {
			r.ArchetypeScorecard = b.Scorecard()
		})
	}},

	// ---- 2013 era ----
	{Name: "figure-10", Era: Era2013, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewFigure10Builder, func(b *analysis.Figure10Builder, r *StudyReport) {
			r.Fig10 = b.Figure10(in.Start, in.End)
		})
	}},
	{Name: "recovery-channels", Era: Era2013, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewRecoveryChannelsBuilder, func(b *analysis.RecoveryChannelsBuilder, r *StudyReport) {
			secTotal, secRecycled := secondaryCountsDir(in.Dir)
			r.Channels = b.RecoveryChannels(secTotal, secRecycled)
		})
	}},
	{Name: "remission", Era: Era2013, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewRemissionBuilder, func(b *analysis.RemissionBuilder, r *StudyReport) {
			r.Remission = b.Remission()
		})
	}},

	// ---- 2014 era ----
	{Name: "table-2", Era: Era2014, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewPhishSampleBuilder, func(b *analysis.PhishSampleBuilder, r *StudyReport) {
			r.Table2 = b.Table2(100)
		})
	}},
	{Name: "url-share", Era: Era2014, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewPhishSampleBuilder, func(b *analysis.PhishSampleBuilder, r *StudyReport) {
			r.URLShare = b.URLShare(100)
		})
	}},
	{Name: "figure-11", Era: Era2014, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(analysis.NewFigure11Builder, func(b *analysis.Figure11Builder, r *StudyReport) {
			r.Fig11 = b.Figure11(in.Plan, analysis.DefaultFigure11Cases)
		})
	}},

	// ---- base rates ----
	{Name: "base-rates", Era: EraBase, NeedsDir: true, Stream: func(in AnalysisInput) StreamAnalysis {
		return builder(func() *analysis.BaseRatesBuilder {
			return analysis.NewBaseRatesBuilder(in.Start)
		}, func(b *analysis.BaseRatesBuilder, r *StudyReport) {
			active := 0
			in.Dir.All(func(a *identity.Account) {
				if a.Active(in.End) {
					active++
				}
			})
			r.BaseRates = b.BaseRates(in.Start, in.End, active)
		})
	}},
}

// Registry returns the full analysis registry in report order. Callers
// must not mutate the entries.
func Registry() []Analysis {
	return append([]Analysis(nil), registry...)
}

// worldInput packages a finished world for the registry.
func worldInput(w *World, scale float64) AnalysisInput {
	return AnalysisInput{
		Log:   w.Log,
		Start: w.Cfg.Start,
		End:   w.End(),
		Plan:  w.Plan,
		Dir:   w.Dir,
		Scale: scale,
	}
}

// RunAnalyses runs every applicable registry analysis against one input
// (typically a dumped log reloaded by cmd/analyze) and returns the report
// plus the names of analyses skipped because they need the live
// directory. par follows StudyConfig.Parallelism semantics: 0 means
// GOMAXPROCS, 1 runs sequentially. The result is deterministic at any
// parallelism — every analysis writes a distinct report field.
func RunAnalyses(in AnalysisInput, par int) (*StudyReport, []string) {
	if in.Scale <= 0 {
		in.Scale = 1
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	r := &StudyReport{}
	jobs, skipped := analysisJobs(func(Era) AnalysisInput { return in }, r, par)
	runAll(par, jobs)
	return r, skipped
}

// analysisJobs builds one job per log store, given the input each era's
// analyses read: the registry entries sharing a store run together in one
// runGroup, so the store is scanned once however many analyses read it.
// Entries whose directory requirement is unmet are returned in skipped.
func analysisJobs(input func(Era) AnalysisInput, r *StudyReport, par int) (jobs []func(), skipped []string) {
	type group struct {
		in      AnalysisInput
		entries []Analysis
	}
	var groups []*group
	byStore := map[*logstore.Store]*group{}
	for _, a := range registry {
		in := input(a.Era)
		if a.NeedsDir && in.Dir == nil {
			skipped = append(skipped, a.Name)
			continue
		}
		g := byStore[in.Log]
		if g == nil {
			g = &group{in: in}
			byStore[in.Log] = g
			groups = append(groups, g)
		}
		g.entries = append(g.entries, a)
	}
	for _, g := range groups {
		jobs = append(jobs, func() { runGroup(g.in, g.entries, r, par) })
	}
	return jobs, skipped
}

// runGroup runs the entries that share one store. It builds one builder per
// entry and decodes each storage unit once (ScanSegments: every segment of
// a segmented store, or the whole log of an in-RAM store). Each unit is
// fanned out as one job per builder on up to par workers, and every job
// finishes before the next unit is delivered, so each builder sees the
// whole log in order — the report is the one a sequential pass builds, at
// any par and any segment layout.
func runGroup(in AnalysisInput, entries []Analysis, r *StudyReport, par int) {
	builders := make([]StreamAnalysis, len(entries))
	jobs := make([]func(), len(entries))
	var unit []event.Event
	for i, a := range entries {
		b := a.Stream(in)
		builders[i] = b
		jobs[i] = func() {
			for _, e := range unit {
				b.Observe(e)
			}
		}
	}
	in.Log.ScanSegments(func(_ int, events []event.Event) {
		unit = events
		runAll(par, jobs)
	})
	for _, b := range builders {
		b.Finalize(r)
	}
}

// secondaryCountsDir tallies the population's secondary-email totals for
// the §6.3 channel-reliability estimate.
func secondaryCountsDir(dir *identity.Directory) (total, recycled int) {
	dir.All(func(a *identity.Account) {
		if a.SecondaryEmail != "" {
			total++
			if a.SecondaryRecycled {
				recycled++
			}
		}
	})
	return total, recycled
}
