package logstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"manualhijack/internal/event"
)

var testMeta = Meta{
	Start: t0,
	End:   t0.Add(30 * 24 * time.Hour),
	Seed:  42,
}

// dumpLines writes s with testMeta and returns the dump split into lines
// (header first), for fixture surgery.
func dumpLines(t *testing.T, s *Store) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteNDJSONMeta(&buf, s, testMeta); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != s.Len()+1 {
		t.Fatalf("dump has %d lines, want %d records + header", len(lines), s.Len())
	}
	return lines
}

// The index-backed fast paths (Select, KindCounts) only engage on a
// sealed store; a dumped log is complete by construction, so loading it
// must seal. This is the regression test for the unsealed-analyze-path
// bug: cmd/analyze used to receive an unsealed store and silently fall
// back to full-log scans.
func TestReadNDJSONSealsStore(t *testing.T) {
	src := mixedStore(300)
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Sealed() {
		t.Fatal("round-tripped store is not sealed")
	}

	// Sealed, index-backed reads must match what a raw scan of the loaded
	// log says.
	wantLogins := 0
	wantCounts := map[event.Kind]int{}
	got.Scan(func(e event.Event) {
		wantCounts[e.EventKind()]++
		if _, ok := e.(event.Login); ok {
			wantLogins++
		}
	})
	if logins := Select[event.Login](got); len(logins) != wantLogins {
		t.Fatalf("Select = %d, scan says %d", len(logins), wantLogins)
	}
	if counts := got.KindCounts(); !reflect.DeepEqual(counts, wantCounts) {
		t.Fatalf("KindCounts = %v, scan says %v", counts, wantCounts)
	}
}

// write → read → re-write must be byte-identical: the decode loses
// nothing, the encoder is deterministic, and the header (including its
// metadata) round-trips.
func TestNDJSONRewriteByteIdentical(t *testing.T) {
	src := benchStore(2000)
	var first bytes.Buffer
	if err := WriteNDJSONMeta(&first, src, testMeta); err != nil {
		t.Fatal(err)
	}
	loaded, st, err := ReadNDJSONWith(bytes.NewReader(first.Bytes()), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Legacy || st.Meta != testMeta || st.Records != src.Len() {
		t.Fatalf("header did not round-trip: %+v", st)
	}
	if st.First != t0 || st.Last.Before(st.First) {
		t.Fatalf("record time range wrong: %v .. %v", st.First, st.Last)
	}
	var second bytes.Buffer
	if err := WriteNDJSONMeta(&second, loaded, st.Meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-write diverges: %d vs %d bytes", first.Len(), second.Len())
	}
}

// A headerless (version-1) dump still loads, flagged Legacy, with the
// window falling back to the record time range.
func TestNDJSONLegacyHeaderless(t *testing.T) {
	lines := dumpLines(t, mixedStore(50))
	legacy := strings.Join(lines[1:], "\n") + "\n"
	s, st, err := ReadNDJSONWith(strings.NewReader(legacy), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Legacy || st.Meta != (Meta{}) {
		t.Fatalf("legacy dump not flagged: %+v", st)
	}
	if !s.Sealed() || s.Len() != len(lines)-1 {
		t.Fatalf("legacy load: sealed=%v len=%d", s.Sealed(), s.Len())
	}
}

func TestNDJSONUnsupportedVersion(t *testing.T) {
	in := `{"format":"manualhijack-ndjson","version":99,"records":0}` + "\n"
	if _, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future version accepted: %v", err)
	}
}

// Strict mode fails on the first bad line and names it; -skip-corrupt
// drops it, reports it, and still seals.
func TestNDJSONCorruptLineModes(t *testing.T) {
	lines := dumpLines(t, mixedStore(40))
	n := len(lines) - 1 // records
	corruptAt := 5      // 1-based input line (a record, not the header)
	lines[corruptAt-1] = `{"kind":"auth.login","data":{"broken`
	in := strings.Join(lines, "\n") + "\n"

	if _, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "line 5") {
		t.Fatalf("strict mode error = %v, want line 5", err)
	}

	s, st, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 1 || st.Records != n-1 || st.Missing != 0 {
		t.Fatalf("tolerant stats = %+v, want 1 dropped of %d", st, n)
	}
	if !s.Sealed() || s.Len() != n-1 {
		t.Fatalf("tolerant load: sealed=%v len=%d want %d", s.Sealed(), s.Len(), n-1)
	}
}

// A dump cut mid-record (crash-durable write) is a truncated trailing
// line: strict refuses, tolerant keeps the complete prefix and reports
// both the dropped partial line and the header shortfall.
func TestNDJSONTruncatedTail(t *testing.T) {
	lines := dumpLines(t, mixedStore(30))
	n := len(lines) - 1
	wholeLoss := 2 // drop two full records, then half of a third
	kept := lines[:len(lines)-wholeLoss]
	lastIdx := len(kept) - 1
	kept[lastIdx] = kept[lastIdx][:len(kept[lastIdx])/2]
	in := strings.Join(kept, "\n")

	if _, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{}); err == nil {
		t.Fatal("strict mode accepted a truncated dump")
	}

	s, st, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords := n - wholeLoss - 1
	if st.Records != wantRecords || st.Dropped != 1 || st.Missing != wholeLoss {
		t.Fatalf("tolerant stats = %+v, want records=%d dropped=1 missing=%d",
			st, wantRecords, wholeLoss)
	}
	if s.Len() != wantRecords || !s.Sealed() {
		t.Fatalf("store len=%d sealed=%v", s.Len(), s.Sealed())
	}
}

// Losing exactly whole lines leaves no malformed line behind — only the
// header's record count exposes the truncation.
func TestNDJSONHeaderCountCatchesCleanTruncation(t *testing.T) {
	lines := dumpLines(t, mixedStore(20))
	in := strings.Join(lines[:len(lines)-3], "\n") + "\n"
	if _, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("clean truncation not caught: %v", err)
	}
	_, st, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Missing != 3 || st.Dropped != 0 {
		t.Fatalf("tolerant stats = %+v, want missing=3", st)
	}
}

// Records must be time-ordered; the reader verifies instead of trusting.
func TestNDJSONOutOfOrder(t *testing.T) {
	s := New()
	s.Append(login(t0, 1, event.ActorOwner))
	s.Append(login(t0.Add(time.Minute), 2, event.ActorOwner))
	s.Append(login(t0.Add(2*time.Minute), 3, event.ActorOwner))
	lines := dumpLines(t, s)
	lines[2], lines[3] = lines[3], lines[2] // swap the 2nd and 3rd records

	in := strings.Join(lines, "\n") + "\n"
	if _, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "out-of-order") {
		t.Fatalf("disorder accepted: %v", err)
	}

	got, st, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.OutOfOrder != 1 || got.Len() != 2 {
		t.Fatalf("tolerant disorder: stats=%+v len=%d", st, got.Len())
	}
}

// Gzip round trip: WriteNDJSONFile compresses on a .gz path, and the
// reader detects gzip by magic bytes (no filename needed).
func TestNDJSONGzipRoundTrip(t *testing.T) {
	src := mixedStore(200)
	path := filepath.Join(t.TempDir(), "world.ndjson.gz")
	if err := WriteNDJSONFile(path, src, testMeta); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf(".gz file is not gzip (starts %x)", raw[:2])
	}

	got, st, err := ReadNDJSONFile(path, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != src.Len() || !got.Sealed() || st.Meta != testMeta {
		t.Fatalf("gzip round trip: len=%d sealed=%v meta=%+v", got.Len(), got.Sealed(), st.Meta)
	}

	// Magic-byte detection from a bare reader, too.
	got2, _, err := ReadNDJSONWith(bytes.NewReader(raw), ReadOptions{})
	if err != nil || got2.Len() != src.Len() {
		t.Fatalf("magic-byte gzip read: len=%d err=%v", got2.Len(), err)
	}

	// A gzip stream cut mid-member is tolerated only with -skip-corrupt.
	cut := raw[:len(raw)*2/3]
	if _, _, err := ReadNDJSONWith(bytes.NewReader(cut), ReadOptions{}); err == nil {
		t.Fatal("strict mode accepted a cut gzip stream")
	}
	_, st3, err := ReadNDJSONWith(bytes.NewReader(cut), ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Truncated {
		t.Fatalf("cut gzip not flagged truncated: %+v", st3)
	}
}

func TestNDJSONPlainFileRoundTrip(t *testing.T) {
	src := mixedStore(100)
	path := filepath.Join(t.TempDir(), "world.ndjson")
	if err := WriteNDJSONFile(path, src, testMeta); err != nil {
		t.Fatal(err)
	}
	got, st, err := ReadNDJSONFile(path, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != src.Len() || st.Meta.Seed != testMeta.Seed {
		t.Fatalf("plain file round trip: len=%d meta=%+v", got.Len(), st.Meta)
	}
}

// The sharded parallel decode must be a pure performance change: any
// shard count yields the same store and stats, in both modes.
func TestNDJSONParallelMatchesSequential(t *testing.T) {
	lines := dumpLines(t, benchStore(10000))
	lines[17] = "garbage"        // malformed
	lines[4003] = `{"kind":"x"}` // unknown kind
	in := strings.Join(lines, "\n") + "\n"

	var wantStore *Store
	var wantStats *ReadStats
	for _, shards := range []int{1, 2, 8} {
		s, st, err := ReadNDJSONWith(strings.NewReader(in),
			ReadOptions{SkipCorrupt: true, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if wantStore == nil {
			wantStore, wantStats = s, st
			if st.Dropped != 2 {
				t.Fatalf("fixture should drop 2 lines, got %+v", st)
			}
			continue
		}
		if !reflect.DeepEqual(st, wantStats) {
			t.Fatalf("shards=%d stats diverge: %+v vs %+v", shards, st, wantStats)
		}
		if s.Len() != wantStore.Len() || !reflect.DeepEqual(s.KindCounts(), wantStore.KindCounts()) {
			t.Fatalf("shards=%d store diverges", shards)
		}
	}

	// Strict mode: every shard count reports the same first bad line.
	for _, shards := range []int{1, 2, 8} {
		_, _, err := ReadNDJSONWith(strings.NewReader(in), ReadOptions{Shards: shards})
		if err == nil || !strings.Contains(err.Error(), "line 18") {
			t.Fatalf("shards=%d: first-bad-line = %v, want line 18", shards, err)
		}
	}
}

// Blank lines are ignored but still count toward reported line numbers.
func TestNDJSONBlankLines(t *testing.T) {
	lines := dumpLines(t, mixedStore(10))
	withBlanks := lines[0] + "\n\n" + strings.Join(lines[1:], "\n\n") + "\n"
	s, st, err := ReadNDJSONWith(strings.NewReader(withBlanks), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(lines)-1 || st.Dropped != 0 {
		t.Fatalf("blank lines mishandled: len=%d stats=%+v", s.Len(), st)
	}
}

// The all-kinds fixture in logstore_test.go must cover the full codec
// vocabulary — a new event type cannot ship without dump/load coverage.
func TestNDJSONVocabularyComplete(t *testing.T) {
	kinds := event.RegisteredKinds()
	if len(kinds) != 28 {
		t.Fatalf("registered kinds = %d; update the all-kinds round-trip fixture and this count", len(kinds))
	}
}

// A tolerant read of a pristine dump reports a clean bill of health.
func TestNDJSONSkipCorruptCleanInput(t *testing.T) {
	var buf bytes.Buffer
	src := mixedStore(60)
	if err := WriteNDJSONMeta(&buf, src, testMeta); err != nil {
		t.Fatal(err)
	}
	_, st, err := ReadNDJSONWith(&buf, ReadOptions{SkipCorrupt: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped+st.OutOfOrder+st.Missing != 0 || st.Truncated || st.Records != src.Len() {
		t.Fatalf("clean input reported dirty: %+v", st)
	}
}
