package main

import (
	"os"
	"testing"
	"time"
)

func TestReportDigestIgnoresTimingLines(t *testing.T) {
	report := "table 1\nrow a\n"
	run1 := report + "\nstudy completed in 6.1s (seed=1 scale=0.10 parallelism=2 log=spill)\npeak-rss-mib: 480\n"
	run2 := report + "\nstudy completed in 9.9s (seed=1 scale=0.10 parallelism=2 log=spill)\npeak-rss-mib: 512\n"
	if reportDigest([]byte(run1)) != reportDigest([]byte(run2)) {
		t.Error("digest depends on the timing footer")
	}
	if reportDigest([]byte(run1)) != reportDigest([]byte(report)) {
		t.Error("an in-process render digests differently from the command's output")
	}
	if reportDigest([]byte(run1)) == reportDigest([]byte("table 1\nrow b\n")) {
		t.Error("digest ignores report content")
	}
}

func TestParseManifest(t *testing.T) {
	good := `{"format":"manualhijack-segments","version":1,"records":3,"segments":[
		{"file":"seg-000001.ndjson","records":2,"kinds":{"auth.login":1,"mail.sent":1}},
		{"file":"seg-000002.ndjson","records":1,"kinds":{"hijack.started":1}}]}`
	m, err := parseManifest([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 2 || m.Segments[0].Kinds["auth.login"] != 1 {
		t.Errorf("manifest = %+v", m)
	}
	for name, bad := range map[string]string{
		"format":  `{"format":"other","records":0,"segments":[]}`,
		"records": `{"format":"manualhijack-segments","records":5,"segments":[{"file":"a","records":2}]}`,
		"json":    `{"format":`,
	} {
		if _, err := parseManifest([]byte(bad)); err == nil {
			t.Errorf("%s: bad manifest accepted", name)
		}
	}
}

func TestReadManifests(t *testing.T) {
	dir := t.TempDir()
	for _, era := range []string{"2012", "2013"} {
		if err := os.MkdirAll(dir+"/"+era, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+"/"+era+"/seg-000001.ndjson", []byte("0123456789"), 0o644); err != nil {
			t.Fatal(err)
		}
		man := `{"format":"manualhijack-segments","records":4,"segments":[
			{"file":"seg-000001.ndjson","records":4,"kinds":{"auth.login":2,"mail.sent":1,"hijack.ended":1}}]}`
		if err := os.WriteFile(dir+"/"+era+"/manifest.json", []byte(man), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := readManifests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.segments != 2 || st.records != 8 || st.bytes != 20 || st.kinds["auth.login"] != 4 {
		t.Errorf("spill stats = %+v", st)
	}
	v := values{}
	st.report(v)
	if v["work.auth_login"] != 4 || v["work.mail_events"] != 2 || v["work.hijack_events"] != 2 || v["logstore.segments"] != 2 {
		t.Errorf("reported %v", v)
	}
	if _, err := readManifests(t.TempDir()); err == nil {
		t.Error("an empty spill directory read as valid")
	}
}

func TestKindCount(t *testing.T) {
	out := []byte("records by kind\n  kind        count\n  auth.login  362394\n  mail.sent   5\n\nlifecycle: 1 lures\n")
	if n, err := kindCount(out, "auth.login"); err != nil || n != 362394 {
		t.Errorf("kindCount = %d, %v", n, err)
	}
	if _, err := kindCount(out, "auth.logout"); err == nil {
		t.Error("missing kind found")
	}
}

func TestParseRiskload(t *testing.T) {
	s, err := parseRiskload([]byte(`{"mode":"replay","duration_s":8.5,"errors":0,"rejected_429":0,
		"replay":{"logins":10,"scored":9,"skipped":1,"mismatches":2,"workers":2,"http_requests":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.DurationS != 8.5 || s.Replay.Scored != 9 || s.Replay.Mismatches != 2 {
		t.Errorf("summary = %+v", s)
	}
	if _, err := parseRiskload([]byte(`{"mode":"synthetic","duration_s":3}`)); err == nil {
		t.Error("summary without a replay block accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 40 * ms, End: 90 * ms},
		{Name: "b.child", Parent: 2, Start: 50 * ms, End: 70 * ms},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 20 * ms, "a": 30 * ms, "b": 30 * ms, "b.child": 20 * ms}
	for k, w := range want {
		if self[k] != w {
			t.Errorf("self[%s] = %v, want %v", k, self[k], w)
		}
	}
	if duration(spans, "b") != 50*ms {
		t.Errorf("duration(b) = %v", duration(spans, "b"))
	}
}

func TestTracerNests(t *testing.T) {
	tr := newTracer()
	tr.do("root", func() {
		tr.do("a", func() {})
		tr.do("b", func() { tr.do("c", func() {}) })
	})
	tr.do("other", func() {})
	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.Name] = s.Parent
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	want := map[string]int{"root": -1, "a": 0, "b": 0, "c": 2, "other": -1}
	for k, w := range want {
		if parents[k] != w {
			t.Errorf("parent of %s = %d, want %d", k, parents[k], w)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDumpSeed(t *testing.T) {
	seen := map[int64]bool{}
	for s := int64(-10); s <= 10; s++ {
		w := dumpSeed(s)
		if w < 1 || w > dumpWorlds {
			t.Fatalf("dumpSeed(%d) = %d", s, w)
		}
		seen[w] = true
	}
	if len(seen) != dumpWorlds {
		t.Errorf("seeds reach %d of %d dump worlds", len(seen), dumpWorlds)
	}
}

func TestProcCPU(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	d, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 {
		t.Errorf("procCPU = %v", d)
	}
}

func TestParseStat(t *testing.T) {
	stat := "cpu  2694243 0 268664 1483883 3620 0 25700 123927 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n"
	steal, total, err := parseStat([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if steal != 123927 || total != 2694243+268664+1483883+3620+25700+123927 {
		t.Errorf("steal=%d total=%d", steal, total)
	}
	if _, _, err := parseStat([]byte("intr 1 2 3\n")); err == nil {
		t.Error("a non-cpu line parsed")
	}
}
