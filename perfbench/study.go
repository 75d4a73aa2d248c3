package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"manualhijack/internal/core"
	"manualhijack/internal/logstore"
	"manualhijack/internal/playbook"
	"manualhijack/internal/report"
)

const (
	// studyScale is the measured study's size: the five-era study with
	// populations and phishing volume at a tenth of the paper's.
	studyScale = 0.1
	// warmScale is the start-up study the set-up runs: small enough that
	// fixed per-run costs dominate it.
	warmScale = 0.005
	// warmRuns is how many start-up studies the set-up runs.
	warmRuns = 3
)

func studyArgs(e *env, scale float64, spillDir string) []string {
	args := []string{
		"-seed", strconv.FormatInt(e.seed, 10),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-par", strconv.Itoa(e.nproc),
		"-archetypes", roster,
	}
	if spillDir != "" {
		args = append(args, "-spill-dir", spillDir)
	}
	return args
}

// studyRep is one measured hijackstudy run.
type studyRep struct {
	wall, rss float64
	spill     spillStats
}

// studyOnce runs the measured study once, checks its report against the
// seed's reference digest, and reads the spill manifests it left.
func studyOnce(ctx context.Context, e *env, o *outcome) (*studyRep, error) {
	dir := workPath("study-spill")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r, err := runProc(ctx, nil, binPath("hijackstudy"), studyArgs(e, studyScale, dir)...)
	if err != nil {
		return nil, err
	}
	o.attempted++
	if r.ExitCode != 0 {
		o.wrong(1, "hijackstudy exited %d", r.ExitCode)
		return nil, nil
	}
	if err := checkDigest(e, o, reportDigest(r.Stdout)); err != nil {
		return nil, err
	}
	sp, err := readManifests(dir)
	if err != nil {
		return nil, err
	}
	return &studyRep{wall: r.Wall.Seconds(), rss: r.MaxRSS, spill: sp}, nil
}

func runStudy(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	var setups, walls, rss, logins []float64
	for i := 0; i < warmRuns; i++ {
		r, err := runProc(ctx, nil, binPath("hijackstudy"), studyArgs(e, warmScale, "")...)
		if err != nil {
			return nil, err
		}
		o.attempted++
		if r.ExitCode != 0 {
			o.wrong(1, "start-up hijackstudy exited %d", r.ExitCode)
		}
		setups = append(setups, r.Wall.Seconds())
		logSample("study", "setup_s", r.Wall.Seconds())
	}
	err := repeat(ctx, e, minStudyReps, func() error {
		rep, err := studyOnce(ctx, e, o)
		if rep != nil {
			walls = append(walls, rep.wall)
			rss = append(rss, rep.rss)
			logins = append(logins, ratio(float64(rep.spill.kinds["auth.login"]), rep.wall))
			logSample("study", "wall_s", rep.wall, "peak_rss_mib", rep.rss)
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

func traceStudy(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	base, err := studyOnce(ctx, e, o)
	if err != nil {
		return nil, err
	}

	sc := core.DefaultStudyConfig(e.seed)
	sc.Scale = studyScale
	sc.Parallelism = e.nproc
	sc.SpillDir = workPath("study-spill-traced")
	entries, err := playbook.ParseRoster(roster)
	if err != nil {
		return nil, err
	}
	for _, en := range entries {
		sc.Archetypes = append(sc.Archetypes, core.ArchetypeSpec{Archetype: en.Archetype, Count: en.Count})
	}
	if err := os.RemoveAll(sc.SpillDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(sc.SpillDir)

	tr := newTracer()
	prof, err := startProfiler()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	tr.do("study", func() {
		var r *core.StudyReport
		tr.do("core.RunStudy", func() { r = core.RunStudy(sc) })
		tr.do("report.RenderStudy", func() { report.RenderStudy(&out, r) })
	})
	if err := prof.stop(o.v); err != nil {
		return nil, err
	}
	o.attempted++
	if err := checkDigest(e, o, reportDigest(out.Bytes())); err != nil {
		return nil, err
	}
	sp, err := readManifests(sc.SpillDir)
	if err != nil {
		return nil, err
	}
	sp.report(o.v)

	// The read side of the spill, outside the profiled section: each era's
	// segment directory opened as analyze opens one, and every segment
	// line decoded on its own.
	eras, err := filepath.Glob(filepath.Join(sc.SpillDir, "*"))
	if err != nil {
		return nil, err
	}
	var readErr error
	tr.do("spill.read", func() {
		for _, dir := range eras {
			tr.do("logstore.ReadNDJSONFile", func() { _, _, readErr = logstore.ReadNDJSONFile(dir, logstore.ReadOptions{}) })
			if readErr != nil {
				return
			}
		}
	})
	if readErr != nil {
		return nil, readErr
	}
	segs, err := filepath.Glob(filepath.Join(sc.SpillDir, "*", "seg-*.ndjson"))
	if err != nil {
		return nil, err
	}
	ns, err := decodeNsPerRecord(segs...)
	if err != nil {
		return nil, err
	}
	o.v["event.decode_ns_per_record"] = ns

	self := selfTimes(tr.spans)
	read := self["logstore.ReadNDJSONFile"].Seconds()
	o.v["logstore.read_s"] = read
	o.v["logstore.read_mib_per_s"] = ratio(float64(sp.bytes)/(1<<20), read)
	o.v["core.run_study_s"] = self["core.RunStudy"].Seconds()
	o.v["report.render_s"] = self["report.RenderStudy"].Seconds()
	if base != nil {
		traceOverhead(o.v, tr, "study", base.wall)
	}
	return o, writeSpans(workPath(fmt.Sprintf("spans-study-%d.json", e.seed)), tr.spans)
}

// traceOverhead reports the traced root span's wall time against the
// untraced repetition of the same work made earlier in this run.
func traceOverhead(v values, tr *tracer, root string, untraced float64) {
	traced := duration(tr.spans, root).Seconds()
	v["trace.wall_s"] = traced
	v["trace.untraced_wall_s"] = untraced
	v["trace.overhead_s"] = traced - untraced
}

// reportDigest hashes a study report without the lines that carry
// wall-clock or memory figures, so equal seeds must give equal digests.
func reportDigest(out []byte) string {
	var keep []string
	for _, l := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(l, "study completed in ") || strings.HasPrefix(l, "peak-rss-mib:") {
			continue
		}
		keep = append(keep, l)
	}
	body := strings.TrimRight(strings.Join(keep, "\n"), "\n")
	sum := sha256.Sum256([]byte(body))
	return hex.EncodeToString(sum[:])
}

// checkDigest compares a report digest with the first one recorded for
// this seed in this checkout, recording it when there is none yet.
func checkDigest(e *env, o *outcome, digest string) error {
	path := cachePath(fmt.Sprintf("study-seed%d-scale%g.sha256", e.seed, studyScale))
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, []byte(digest), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	if string(want) != digest {
		o.wrong(1, "study report digest %s differs from this seed's first report %s", digest[:12], want[:min(12, len(want))])
	}
	return nil
}

// spillStats totals the segment manifests of a spill directory.
type spillStats struct {
	segments int
	records  int64
	bytes    int64
	kinds    map[string]int64
}

// readManifests reads every manifest.json under dir (one per era world)
// and sizes the segment files they list.
func readManifests(dir string) (spillStats, error) {
	st := spillStats{kinds: map[string]int64{}}
	paths, err := filepath.Glob(filepath.Join(dir, "*", "manifest.json"))
	if err != nil {
		return st, err
	}
	if len(paths) == 0 {
		return st, fmt.Errorf("no segment manifests under %s", dir)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return st, err
		}
		m, err := parseManifest(b)
		if err != nil {
			return st, fmt.Errorf("%s: %w", p, err)
		}
		for _, seg := range m.Segments {
			fi, err := os.Stat(filepath.Join(filepath.Dir(p), seg.File))
			if err != nil {
				return st, err
			}
			st.segments++
			st.bytes += fi.Size()
			st.records += seg.Records
			for k, n := range seg.Kinds {
				st.kinds[k] += n
			}
		}
	}
	return st, nil
}

// manifest is the part of a segment manifest the benchmark reads.
type manifest struct {
	Format   string `json:"format"`
	Records  int64  `json:"records"`
	Segments []struct {
		File    string           `json:"file"`
		Records int64            `json:"records"`
		Kinds   map[string]int64 `json:"kinds"`
	} `json:"segments"`
}

func parseManifest(b []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	if m.Format != "manualhijack-segments" {
		return nil, fmt.Errorf("not a segment manifest (format %q)", m.Format)
	}
	var sum int64
	for _, s := range m.Segments {
		sum += s.Records
	}
	if sum != m.Records {
		return nil, fmt.Errorf("segments hold %d records, manifest declares %d", sum, m.Records)
	}
	return &m, nil
}

// report writes the spill's counts as logstore and work metrics.
func (st spillStats) report(v values) {
	v["logstore.segments"] = float64(st.segments)
	v["logstore.spilled_mib"] = float64(st.bytes) / (1 << 20)
	v["logstore.records"] = float64(st.records)
	workCounts(v, st.kinds)
}

// workCounts reports the per-kind work tallies of a log.
func workCounts(v values, kinds map[string]int64) {
	var mail, hijack int64
	for k, n := range kinds {
		switch {
		case strings.HasPrefix(k, "mail."):
			mail += n
		case strings.HasPrefix(k, "hijack."):
			hijack += n
		}
	}
	v["work.auth_login"] = float64(kinds["auth.login"])
	v["work.mail_events"] = float64(mail)
	v["work.hijack_events"] = float64(hijack)
}
