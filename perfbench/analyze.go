package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"time"

	"manualhijack/internal/core"
	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
	"manualhijack/internal/report"
	"manualhijack/internal/stream"
)

const (
	// The dump analyze and riskd read: a 30-day world of 20,000 accounts
	// with the full archetype roster, about 1.43M records.
	dumpPop  = 20000
	dumpDays = 30
	// dumpWorlds is how many distinct dump worlds the seeds map onto.
	// Generating one takes ~20 s on one core, so a checkout generates at
	// most this many and reuses them (see README.md).
	dumpWorlds = 4
)

// dumpSeed maps a run seed onto one of the dump worlds.
func dumpSeed(seed int64) int64 {
	return 1 + ((seed%dumpWorlds)+dumpWorlds)%dumpWorlds
}

// ensureDump returns the seed's dump, generating it with hijacksim when
// this checkout has not yet. Generation is input preparation: it is
// logged, not measured.
func ensureDump(ctx context.Context, e *env) (string, error) {
	ws := dumpSeed(e.seed)
	path := cachePath(fmt.Sprintf("world-seed%d-pop%d-days%d.ndjson", ws, dumpPop, dumpDays))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return "", err
	}
	tmp := path + ".tmp"
	r, err := runProc(ctx, nil, binPath("hijacksim"),
		"-seed", strconv.FormatInt(ws, 10),
		"-pop", strconv.Itoa(dumpPop),
		"-days", strconv.Itoa(dumpDays),
		"-archetypes", roster,
		"-events", tmp)
	if err != nil {
		return "", err
	}
	if r.ExitCode != 0 {
		return "", fmt.Errorf("hijacksim exited %d generating %s", r.ExitCode, path)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	fmt.Fprintf(os.Stderr, "perfbench: generated %s in %s\n", path, r.Wall.Round(time.Millisecond))
	return path, nil
}

// analyzeRep is one measured `analyze -stream` run.
type analyzeRep struct {
	wall, load, rss float64
	logins          int64
}

func analyzeOnce(ctx context.Context, e *env, o *outcome, dump string) (*analyzeRep, error) {
	const loaded = "loaded "
	r, err := runProc(ctx, []string{loaded}, binPath("analyze"), "-events", dump, "-stream")
	if err != nil {
		return nil, err
	}
	o.attempted++
	if r.ExitCode != 0 {
		o.wrong(1, "analyze -stream exited %d (streaming parity gate or load failure)", r.ExitCode)
		return nil, nil
	}
	if len(lines(r.Stdout, "lifecycle: ")) != 1 || len(lines(r.Stdout, "streaming parity ok")) != 1 {
		o.wrong(1, "analyze output lacks its lifecycle or streaming-parity line")
		return nil, nil
	}
	logins, err := kindCount(r.Stdout, "auth.login")
	if err != nil {
		o.wrong(1, "analyze output: %v", err)
		return nil, nil
	}
	return &analyzeRep{wall: r.Wall.Seconds(), load: r.Marks[loaded].Seconds(), rss: r.MaxRSS, logins: logins}, nil
}

// kindCount reads one row of analyze's "records by kind" table.
func kindCount(out []byte, kind string) (int64, error) {
	for _, l := range strings.Split(string(out), "\n") {
		f := strings.Fields(l)
		if len(f) == 2 && f[0] == kind {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %q row in the records-by-kind table", kind)
}

func runAnalyze(ctx context.Context, e *env) (*outcome, error) {
	dump, err := ensureDump(ctx, e)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	var setups, walls, rss, logins []float64
	err = repeat(ctx, e, minReps, func() error {
		rep, err := analyzeOnce(ctx, e, o, dump)
		if rep != nil {
			setups = append(setups, rep.load)
			walls = append(walls, rep.wall)
			rss = append(rss, rep.rss)
			logins = append(logins, ratio(float64(rep.logins), rep.wall))
			logSample("analyze", "setup_s", rep.load, "wall_s", rep.wall, "peak_rss_mib", rep.rss)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	o.v["setup_s"] = median(setups)
	o.v["wall_s"] = median(walls)
	o.v["peak_rss_mib"] = median(rss)
	o.v["logins_per_s"] = median(logins)
	return o, nil
}

func traceAnalyze(ctx context.Context, e *env) (*outcome, error) {
	dump, err := ensureDump(ctx, e)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	base, err := analyzeOnce(ctx, e, o, dump)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	prof, err := startProfiler()
	if err != nil {
		return nil, err
	}
	var (
		s       *logstore.Store
		st      *logstore.ReadStats
		in      core.AnalysisInput
		snap    stream.Report
		loadErr error
		out     bytes.Buffer
	)
	tr.do("analyze", func() {
		tr.do("logstore.ReadNDJSONFile", func() { s, st, loadErr = logstore.ReadNDJSONFile(dump, logstore.ReadOptions{}) })
		if loadErr != nil {
			return
		}
		in = core.AnalysisInput{Log: s, Start: st.Meta.Start, End: st.Meta.End, Plan: core.DefaultIPPlan(), Scale: 1}
		var r *core.StudyReport
		var skipped []string
		tr.do("core.RunAnalyses", func() { r, skipped = core.RunAnalyses(in, 0) })
		tr.do("stream.Bus.Replay", func() {
			bus := stream.NewBus(stream.DefaultSuite(core.DefaultIPPlan())...)
			bus.Replay(s)
			snap = bus.Snapshot()
		})
		batch := stream.Report{
			Lifecycle: r.Lifecycle, Fig6: r.Fig6, Fig8: r.Fig8, Fig11: r.Fig11,
			Scorecard: r.ArchetypeScorecard,
		}
		if diffs := stream.AnalysisDiff(snap, batch); len(diffs) > 0 {
			o.wrong(1, "in-process streaming parity: %v differ", diffs)
		}
		tr.do("report.RenderOffline", func() { report.RenderOffline(&out, r, dump, skipped) })
	})
	if err := prof.stop(o.v); err != nil {
		return nil, err
	}
	if loadErr != nil {
		return nil, loadErr
	}
	o.attempted++

	// Each registry entry folded on its own, as the whole-log path does;
	// outside the profiled section so it does not inflate analysis.cpu_s.
	tr.do("analysis.folds", func() {
		for _, a := range core.Registry() {
			if a.NeedsDir {
				continue
			}
			tr.do("analysis."+a.Name+".fold", func() {
				var r core.StudyReport
				if a.Stream == nil {
					a.Run(in, &r)
					return
				}
				b := a.Stream(in)
				s.Scan(b.Observe)
				b.Finalize(&r)
			})
		}
	})

	fi, err := os.Stat(dump)
	if err != nil {
		return nil, err
	}
	self := selfTimes(tr.spans)
	read := self["logstore.ReadNDJSONFile"].Seconds()
	o.v["logstore.read_s"] = read
	o.v["logstore.read_mib_per_s"] = ratio(float64(fi.Size())/(1<<20), read)
	o.v["logstore.records"] = float64(st.Records)
	o.v["core.run_analyses_s"] = self["core.RunAnalyses"].Seconds()
	o.v["stream.replay_s"] = self["stream.Bus.Replay"].Seconds()
	o.v["stream.events_observed"] = float64(snap.EventsObserved)
	o.v["stream.events_dropped"] = float64(snap.EventsDropped)
	o.v["stream.observed_share"] = ratio(float64(snap.EventsObserved), float64(snap.EventsObserved+snap.EventsDropped))
	o.v["report.render_s"] = self["report.RenderOffline"].Seconds()
	for _, name := range registryEntries {
		o.v["analysis."+name+".fold_s"] = self["analysis."+name+".fold"].Seconds()
	}
	storeWorkCounts(o.v, s)
	if base != nil {
		traceOverhead(o.v, tr, "analyze", base.wall)
	}

	ns, err := decodeNsPerRecord(dump)
	if err != nil {
		return nil, err
	}
	o.v["event.decode_ns_per_record"] = ns
	return o, writeSpans(workPath(fmt.Sprintf("spans-analyze-%d.json", e.seed)), tr.spans)
}

// storeWorkCounts reports a loaded log's per-kind work tallies.
func storeWorkCounts(v values, s *logstore.Store) {
	kinds := map[string]int64{}
	for k, n := range s.KindCounts() {
		kinds[string(k)] = int64(n)
	}
	workCounts(v, kinds)
}

// decodeNsPerRecord times event.DecodeLineFast over every record line of
// the given dumps or segment files, counting only the decode calls.
func decodeNsPerRecord(paths ...string) (float64, error) {
	var (
		n       int
		elapsed time.Duration
	)
	for _, p := range paths {
		k, d, err := timeDecode(p)
		if err != nil {
			return 0, err
		}
		n += k
		elapsed += d
	}
	return ratio(float64(elapsed.Nanoseconds()), float64(n)), nil
}

// timeDecode decodes one NDJSON file's records (after its header line) in
// chunks, timing the decode calls alone.
func timeDecode(path string) (int, time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	var (
		n       int
		elapsed time.Duration
	)
	const chunk = 4096
	batch := make([][]byte, 0, chunk)
	flush := func() error {
		start := time.Now()
		for _, l := range batch {
			if _, ok := event.DecodeLineFast(l); !ok {
				return fmt.Errorf("%s: DecodeLineFast rejected a record line: %.80s", path, l)
			}
		}
		elapsed += time.Since(start)
		n += len(batch)
		batch = batch[:0]
		return nil
	}
	first := true
	for sc.Scan() {
		if first { // the header line
			first = false
			continue
		}
		batch = append(batch, append([]byte(nil), sc.Bytes()...))
		if len(batch) == chunk {
			if err := flush(); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if err := flush(); err != nil {
		return 0, 0, err
	}
	return n, elapsed, nil
}
