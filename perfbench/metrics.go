package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// spec names one metric as BENCHMARK.json declares it.
type spec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd lists what a user of a study, an offline analysis or riskd sees.
// Every untraced run prints all of them.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"logins_per_s", "1/s", "higher"},
}

// profiledPackages are the program packages whose flat CPU samples the
// traced run reports as <name>.cpu_s.
var profiledPackages = []string{
	"mail", "victim", "auth", "risk", "hijacker", "playbook", "simtime", "phishkit", "recovery",
	"core", "logstore", "event", "analysis", "stream", "serve",
}

// allocPackages are the packages whose cumulative allocation the traced
// run reports as <name>.alloc_mib.
var allocPackages = []string{"mail", "victim"}

// registryEntries mirrors the core.Registry() entries that can run on a
// dumped log, in report order; the traced analyze run times each one's
// fold as analysis.<entry>.fold_s. The four directory-backed entries
// (contact-risk, doppelganger, recovery-channels, base-rates) need a live
// world and have no fold metric. TestRegistryCovered fails when the
// registry changes.
var registryEntries = []string{
	"retention-2011", "figure-3", "figure-4", "figure-5", "figure-6",
	"figure-7", "figure-8", "table-3", "assessment", "exploitation", "retention-2012",
	"figure-9", "figure-12", "behavior-detector", "risk-sweep", "work-schedule",
	"monetization", "lifecycle", "archetype-scorecard", "figure-10",
	"remission", "table-2", "url-share", "figure-11",
}

// perLayer lists every traced-run metric. Layers a workload does not reach
// read 0 on it.
func perLayer() []spec {
	s := []spec{
		{"host.ref_cpu_ms", "ms", "lower"},
		{"host.ref_mem_ms", "ms", "lower"},
		{"host.steal_share", "ratio", "lower"},
	}
	for _, p := range profiledPackages {
		s = append(s, spec{p + ".cpu_s", "s", "lower"})
	}
	for _, p := range allocPackages {
		s = append(s, spec{p + ".alloc_mib", "MiB", "lower"})
	}
	s = append(s,
		spec{"core.run_study_s", "s", "lower"},
		spec{"core.run_analyses_s", "s", "lower"},
		spec{"logstore.segments", "count", "lower"},
		spec{"logstore.spilled_mib", "MiB", "lower"},
		spec{"logstore.records", "count", "lower"},
		spec{"logstore.read_s", "s", "lower"},
		spec{"logstore.read_mib_per_s", "MiB/s", "higher"},
		spec{"event.decode_ns_per_record", "ns", "lower"},
	)
	for _, e := range registryEntries {
		s = append(s, spec{"analysis." + e + ".fold_s", "s", "lower"})
	}
	s = append(s,
		spec{"stream.replay_s", "s", "lower"},
		spec{"stream.events_observed", "count", "higher"},
		spec{"stream.events_dropped", "count", "lower"},
		spec{"stream.observed_share", "ratio", "higher"},
		spec{"report.render_s", "s", "lower"},
		spec{"serve.replay_s", "s", "lower"},
		spec{"serve.server_cpu_s", "s", "lower"},
		spec{"serve.client_cpu_s", "s", "lower"},
		spec{"serve.http_requests", "count", "lower"},
		spec{"serve.p50_us", "us", "lower"},
		spec{"serve.p99_us", "us", "lower"},
		spec{"serve.rejected_429", "count", "lower"},
		spec{"serve.bad_requests", "count", "lower"},
		spec{"serve.mismatches", "count", "lower"},
		spec{"serve.decode_ns", "ns", "lower"},
		spec{"serve.score_ns", "ns", "lower"},
		spec{"serve.encode_ns", "ns", "lower"},
		spec{"runtime.alloc_mib", "MiB", "lower"},
		spec{"runtime.gc_cycles", "count", "lower"},
		spec{"runtime.gc_cpu_s", "s", "lower"},
		spec{"runtime.peak_heap_mib", "MiB", "lower"},
		spec{"work.auth_login", "count", "higher"},
		spec{"work.mail_events", "count", "higher"},
		spec{"work.hijack_events", "count", "higher"},
		spec{"trace.wall_s", "s", "lower"},
		spec{"trace.untraced_wall_s", "s", "lower"},
		spec{"trace.overhead_s", "s", "lower"},
	)
	return s
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects a run's measurements by metric name before they are
// checked against the catalog.
type values map[string]float64

// build keeps exactly the catalog's metrics, reading absent ones as 0
// (a layer the workload does not reach) and refusing names the catalog
// does not declare, so a typo cannot silently drop a measurement.
func build(catalog []spec, v values) (map[string]metric, error) {
	known := map[string]bool{}
	out := map[string]metric{}
	for _, s := range catalog {
		known[s.Name] = true
		out[s.Name] = metric{Value: v[s.Name], Unit: s.Unit}
	}
	var unknown []string
	for name := range v {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics not in the catalog: %v", unknown)
	}
	return out, nil
}

// writeResult prints the result as one JSON line.
func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
