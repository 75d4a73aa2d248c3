// Package stream is the online half of the measurement pipeline: the
// analyses that make sense *while logins happen* (the paper's §8.2
// detection posture), recast as incremental consumers of a live event
// feed instead of batch passes over a sealed logstore.Store.
//
// Correctness rests on parity by construction: each Incremental here wraps
// the same builder type (internal/analysis) that the batch Compute*
// function delegates to, so the streaming and batch paths share one
// implementation and cannot drift. The replay harness
// (TestStreamingMatchesBatch) pins the remaining glue by piping sealed
// dumps through the streaming path and asserting reflect.DeepEqual against
// the batch registry's output.
//
// Feeds: a world taps its log (core.World.Tap → Bus.Publish) so the
// analyses track the simulation as it runs, and riskd publishes a
// synthesized login record per scored request, exposing live snapshots at
// /v1/streamz. Incremental analyses hold aggregate state only — per-IP
// days, per-page series, per-account funnel bits — never the log itself,
// which is what frees million-user worlds from keeping every record
// resident (ROADMAP item 1).
package stream

import (
	"reflect"

	"manualhijack/internal/analysis"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
)

// Incremental is one streaming analysis: it folds events in one at a time
// and can write its current result into a Report at any instant.
// Implementations are single-goroutine; the Bus serializes access.
type Incremental interface {
	// Name identifies the analysis (matches the batch registry's name).
	Name() string
	// Observe folds one event into the analysis state.
	Observe(e event.Event)
	// Report writes the analysis's current result into its Report field.
	Report(r *Report)
}

// Report is a point-in-time snapshot of every streaming analysis, plus the
// bus counters. Field names mirror the batch StudyReport so the parity
// harness can compare them directly.
type Report struct {
	// EventsObserved counts events accepted by the bus; EventsDropped
	// counts out-of-order arrivals it refused.
	EventsObserved int64 `json:"events_observed"`
	EventsDropped  int64 `json:"events_dropped"`
	// LastEvent is the timestamp high-water mark.
	LastEvent string `json:"last_event,omitempty"`

	Lifecycle analysis.Lifecycle          `json:"lifecycle"`
	Fig6      analysis.Figure6            `json:"figure6_arrival_decay"`
	Fig8      analysis.Figure8            `json:"figure8_ip_fanout"`
	Fig11     analysis.Figure11           `json:"figure11_geo_clusters"`
	Scorecard analysis.ArchetypeScorecard `json:"archetype_scorecard"`
}

// AnalysisDiff compares the analysis fields of two reports (ignoring the
// bus counters) and returns the names of the ones that differ — empty
// means the reports agree. cmd/analyze -stream and the parity tests use it
// to render actionable mismatches instead of a bare DeepEqual failure.
func AnalysisDiff(a, b Report) []string {
	var diffs []string
	if !reflect.DeepEqual(a.Lifecycle, b.Lifecycle) {
		diffs = append(diffs, "lifecycle")
	}
	if !reflect.DeepEqual(a.Fig6, b.Fig6) {
		diffs = append(diffs, "figure-6")
	}
	if !reflect.DeepEqual(a.Fig8, b.Fig8) {
		diffs = append(diffs, "figure-8")
	}
	if !reflect.DeepEqual(a.Fig11, b.Fig11) {
		diffs = append(diffs, "figure-11")
	}
	if !reflect.DeepEqual(a.Scorecard, b.Scorecard) {
		diffs = append(diffs, "archetype-scorecard")
	}
	return diffs
}

// DefaultSuite returns the live-relevant analyses at their registry
// parameters: the lifecycle funnel, campaign arrival decay (Figure 6),
// per-IP fanout (Figure 8), and geo-velocity clusters (Figure 11, located
// against plan).
func DefaultSuite(plan *geo.IPPlan) []Incremental {
	return []Incremental{
		NewLifecycle(),
		NewArrivalDecay(analysis.DefaultFigure6SamplePages),
		NewIPFanout(),
		NewGeoClusters(plan, analysis.DefaultFigure11Cases),
		NewScorecard(),
	}
}

// Lifecycle streams Figure 2's hijacking funnel.
type Lifecycle struct{ b *analysis.LifecycleBuilder }

// NewLifecycle returns an empty streaming funnel.
func NewLifecycle() *Lifecycle {
	return &Lifecycle{b: analysis.NewLifecycleBuilder()}
}

func (l *Lifecycle) Name() string          { return "lifecycle" }
func (l *Lifecycle) Observe(e event.Event) { l.b.Observe(e) }
func (l *Lifecycle) Report(r *Report)      { r.Lifecycle = l.b.Lifecycle() }

// Scorecard streams the per-archetype detection scorecard.
type Scorecard struct {
	b *analysis.ArchetypeScorecardBuilder
}

// NewScorecard returns an empty streaming scorecard.
func NewScorecard() *Scorecard {
	return &Scorecard{b: analysis.NewArchetypeScorecardBuilder()}
}

func (s *Scorecard) Name() string          { return "archetype-scorecard" }
func (s *Scorecard) Observe(e event.Event) { s.b.Observe(e) }
func (s *Scorecard) Report(r *Report)      { r.Scorecard = s.b.Scorecard() }

// ArrivalDecay streams Figure 6's campaign credential-arrival profile.
type ArrivalDecay struct {
	b           *analysis.Figure6Builder
	samplePages int
}

// NewArrivalDecay returns an empty streaming arrival profile drawing
// Dataset 3's sample at the given size.
func NewArrivalDecay(samplePages int) *ArrivalDecay {
	return &ArrivalDecay{b: analysis.NewFigure6Builder(), samplePages: samplePages}
}

func (a *ArrivalDecay) Name() string          { return "figure-6" }
func (a *ArrivalDecay) Observe(e event.Event) { a.b.Observe(e) }
func (a *ArrivalDecay) Report(r *Report)      { r.Fig6 = a.b.Figure6(a.samplePages) }

// IPFanout streams Figure 8's hijacker per-IP-day activity.
type IPFanout struct{ b *analysis.Figure8Builder }

// NewIPFanout returns an empty streaming fanout aggregate.
func NewIPFanout() *IPFanout {
	return &IPFanout{b: analysis.NewFigure8Builder()}
}

func (f *IPFanout) Name() string          { return "figure-8" }
func (f *IPFanout) Observe(e event.Event) { f.b.Observe(e) }
func (f *IPFanout) Report(r *Report)      { r.Fig8 = f.b.Figure8() }

// GeoClusters streams Figure 11's country mix of hijack-case IPs.
type GeoClusters struct {
	b     *analysis.Figure11Builder
	plan  *geo.IPPlan
	cases int
}

// NewGeoClusters returns an empty streaming cluster aggregate locating IPs
// against plan and sampling Dataset 13 at the given case count.
func NewGeoClusters(plan *geo.IPPlan, cases int) *GeoClusters {
	return &GeoClusters{b: analysis.NewFigure11Builder(), plan: plan, cases: cases}
}

func (g *GeoClusters) Name() string          { return "figure-11" }
func (g *GeoClusters) Observe(e event.Event) { g.b.Observe(e) }
func (g *GeoClusters) Report(r *Report)      { r.Fig11 = g.b.Figure11(g.plan, g.cases) }
