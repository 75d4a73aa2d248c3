package logstore

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"manualhijack/internal/event"
)

// The NDJSON dump format is the contract between `hijacksim -events` and
// `cmd/analyze`: one record per line, preceded by a versioned header line.
//
// Version 2 (current):
//
//	{"format":"manualhijack-ndjson","version":2,"records":N,"start":...,"end":...,"seed":S}
//	{"kind":"auth.login","data":{...}}
//	...
//
// Version 1 is the headerless legacy format; readers still accept it.
// Files may be gzip-compressed: writers compress when the path ends in
// ".gz", readers detect the gzip magic bytes regardless of name.
const (
	// FormatName tags the header line of a versioned dump.
	FormatName = "manualhijack-ndjson"
	// FormatVersion is the dump version this package writes.
	FormatVersion = 2
)

// envelope is the NDJSON wire format: one object per line, tagged with
// the record kind so Decode can pick the concrete type.
type envelope struct {
	Kind event.Kind      `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// Meta is the dump-level metadata carried by the header line: the
// observation window of the world that produced the log — which offline
// analyses need, because the first record's timestamp is not the window
// start — and the world seed for provenance. A zero Meta is legal; readers
// then fall back to the decoded records' time range.
type Meta struct {
	Start time.Time
	End   time.Time
	Seed  int64
}

// header is the first line of a version-2 dump.
type header struct {
	Format  string    `json:"format"`
	Version int       `json:"version"`
	Records int       `json:"records"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Seed    int64     `json:"seed"`
}

// WriteNDJSON streams the store as newline-delimited JSON, preserving log
// order. Equivalent to WriteNDJSONMeta with a zero Meta.
func WriteNDJSON(w io.Writer, s *Store) error {
	return WriteNDJSONMeta(w, s, Meta{})
}

// WriteNDJSONMeta streams the store as newline-delimited JSON with a
// version-2 header carrying m. The format is what cmd/hijacksim dumps and
// cmd/analyze reads.
func WriteNDJSONMeta(w io.Writer, s *Store, m Meta) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{
		Format:  FormatName,
		Version: FormatVersion,
		Records: s.Len(),
		Start:   m.Start,
		End:     m.End,
		Seed:    m.Seed,
	}); err != nil {
		return err
	}
	ew := &envelopeWriter{w: bw, enc: enc}
	var err error
	s.Scan(func(e event.Event) {
		if err != nil {
			return
		}
		err = ew.writeEvent(e)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// envelopeWriter writes record lines in the dump wire format. The fast
// per-kind codec handles every registered value type; anything it
// declines (unregistered type, non-finite float) goes through the
// encoding/json path, which produces the same bytes — the fast path is a
// byte-identical shortcut, pinned by TestFastCodecMatchesEncodingJSON
// and TestNDJSONRewriteByteIdentical.
type envelopeWriter struct {
	w       io.Writer
	enc     *json.Encoder
	scratch []byte
}

func newEnvelopeWriter(w io.Writer) *envelopeWriter {
	return &envelopeWriter{w: w, enc: json.NewEncoder(w)}
}

func (ew *envelopeWriter) writeEvent(e event.Event) error {
	if out, ok := event.AppendLine(ew.scratch[:0], e); ok {
		ew.scratch = out[:0]
		_, err := ew.w.Write(out)
		return err
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return ew.enc.Encode(envelope{Kind: e.EventKind(), Data: data})
}

// WriteNDJSONFile dumps s to path, gzip-compressing when the name ends in
// ".gz". The file's Close error is checked and returned — a full disk or
// write-behind failure must not report a truncated dump as success.
func WriteNDJSONFile(path string, s *Store, m Meta) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("logstore: close %s: %w", path, cerr)
		}
	}()
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(f)
		if err := WriteNDJSONMeta(zw, s, m); err != nil {
			return err
		}
		return zw.Close()
	}
	return WriteNDJSONMeta(f, s, m)
}

// ReadOptions controls ReadNDJSONWith.
type ReadOptions struct {
	// SkipCorrupt tolerates malformed lines, unknown kinds, truncated
	// trailing records (crash-durable dumps), and out-of-order records:
	// offenders are dropped and counted in ReadStats — never silently.
	// The default strict mode fails on the first bad line with its number.
	// When opening a segment directory, corruption is handled at segment
	// granularity: a segment with any bad line is dropped whole (counted
	// in SegmentsDropped), because a partial segment would silently shift
	// every time-windowed aggregate behind it.
	SkipCorrupt bool
	// Shards bounds the parallel JSON-decode workers: 0 means GOMAXPROCS,
	// 1 decodes inline on the reading goroutine (the sequential baseline).
	// For a segment directory this is the segment-verification worker
	// count instead (each segment decodes inline on its worker).
	Shards int
	// CacheSegments bounds how many decoded segments the returned store
	// keeps in RAM when the input is a segment directory (0 means
	// DefaultCacheSegments). Ignored for monolithic dumps.
	CacheSegments int
	// ScanWorkers sets the returned store's ordered-scan decode-ahead
	// window when the input is a segment directory (0 means 1). Ignored
	// for monolithic dumps.
	ScanWorkers int
}

// ReadStats reports what a load actually ingested.
type ReadStats struct {
	Records    int  // decoded records in the returned store
	Dropped    int  // malformed or unknown-kind lines dropped (SkipCorrupt); for segment directories this includes every record of a dropped segment
	OutOfOrder int  // records dropped for violating time order (SkipCorrupt)
	Missing    int  // header-declared records absent from the input (truncated dump)
	Truncated  bool // the input itself ended mid-stream (e.g. a cut gzip)
	Legacy     bool // headerless version-1 input
	Meta       Meta // header metadata (zero when Legacy)
	// First and Last bound the decoded records' timestamps; offline
	// analysis falls back to them when Meta carries no window.
	First, Last time.Time
	// Segments and SegmentsDropped describe a segment-directory load:
	// segments served by the returned store, and whole segments dropped
	// for corruption or cross-segment disorder (SkipCorrupt mode only —
	// strict mode fails instead). Both zero for monolithic dumps.
	Segments        int
	SegmentsDropped int
}

// ReadNDJSON reconstructs a store from WriteNDJSON output in strict mode.
// The returned store is sealed: a dumped log is complete by construction,
// so the load is the moment the kind index can be built — readers get the
// same index-backed fast paths (Select, KindCounts) a live world gets
// after World.Run.
func ReadNDJSON(r io.Reader) (*Store, error) {
	s, _, err := ReadNDJSONWith(r, ReadOptions{})
	return s, err
}

// ReadNDJSONWith reconstructs a sealed store from NDJSON, decoding lines
// in parallel shards and verifying time order instead of trusting it.
// Gzip input is detected by magic bytes and decompressed transparently.
func ReadNDJSONWith(r io.Reader, opts ReadOptions) (*Store, *ReadStats, error) {
	plain, closeFn, err := sniffGzip(r)
	if err != nil {
		return nil, nil, err
	}
	defer closeFn()
	return readNDJSON(plain, opts)
}

// ReadNDJSONFile loads a dump from disk (plain or gzip-compressed). When
// path is a directory it is opened as a spilled segment directory instead
// (see OpenSegmentDir) — the offline pipeline treats both layouts as one
// virtual store.
func ReadNDJSONFile(path string, opts ReadOptions) (*Store, *ReadStats, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return OpenSegmentDir(path, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadNDJSONWith(f, opts)
}

// sniffGzip peeks at r and transparently unwraps a gzip stream. The
// returned close function releases the decompressor (a no-op for plain
// input); the underlying reader is never closed.
func sniffGzip(r io.Reader) (io.Reader, func() error, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, fmt.Errorf("logstore: gzip: %w", err)
		}
		return zr, zr.Close, nil
	}
	return br, func() error { return nil }, nil
}

// batchLines is the unit of work handed to a decode shard. JSON unmarshal
// dominates ingest CPU, so lines are decoded out-of-line while the reader
// goroutine keeps scanning; batches carry their original position so the
// log is reassembled in order.
const batchLines = 2048

// lineBatch is a contiguous run of raw lines plus the decode results a
// worker fills in. events[i] is nil where line i was dropped; errs[i]
// carries the reason.
type lineBatch struct {
	idx    int
	nums   []int // 1-based input line numbers
	lines  [][]byte
	events []event.Event
	errs   []error
}

// decode unmarshals every line of the batch. In strict mode the first
// error stops the batch and publishes its index through minFailed so
// later batches can be abandoned — earlier ones still decode fully, which
// keeps "first bad line" deterministic under parallel scheduling.
func (b *lineBatch) decode(skipCorrupt bool, minFailed *atomic.Int64) {
	b.events = make([]event.Event, len(b.lines))
	b.errs = make([]error, len(b.lines))
	for i, data := range b.lines {
		e, err := decodeLine(data)
		if err != nil {
			b.errs[i] = fmt.Errorf("logstore: line %d: %w", b.nums[i], err)
			if !skipCorrupt {
				for {
					cur := minFailed.Load()
					if int64(b.idx) >= cur || minFailed.CompareAndSwap(cur, int64(b.idx)) {
						break
					}
				}
				b.lines = nil
				return
			}
			continue
		}
		b.events[i] = e
	}
	// Drop the raw bytes so they can be reclaimed while later batches
	// stream through; only the decoded records are retained.
	b.lines = nil
}

func decodeLine(data []byte) (event.Event, error) {
	// Canonical lines take the hand-rolled path; any shape surprise —
	// foreign writer, legacy dump, corruption — falls back to
	// encoding/json, which owns the error semantics.
	if e, ok := event.DecodeLineFast(data); ok {
		return e, nil
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	return event.Decode(env.Kind, env.Data)
}

// readNDJSON decodes a full dump and seals it into a store.
func readNDJSON(r io.Reader, opts ReadOptions) (*Store, *ReadStats, error) {
	events, st, err := decodeNDJSON(r, opts)
	if err != nil {
		return nil, nil, err
	}
	// The log is complete by construction: seal so every read gets the
	// kind-indexed fast paths instead of full-log scans.
	s := &Store{events: events}
	s.Seal()
	return s, st, nil
}

// decodeNDJSON is the core NDJSON decode shared by monolithic dump loads
// and segment-file loads: it returns the time-ordered event slice and the
// ingest stats without committing to a storage layout.
func decodeNDJSON(r io.Reader, opts ReadOptions) ([]event.Event, *ReadStats, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	st := &ReadStats{}

	var (
		batches   []*lineBatch
		cur       *lineBatch
		work      chan *lineBatch
		wg        sync.WaitGroup
		minFailed atomic.Int64
	)
	minFailed.Store(math.MaxInt64)
	if shards > 1 {
		work = make(chan *lineBatch, shards*2)
		wg.Add(shards)
		for i := 0; i < shards; i++ {
			go func() {
				defer wg.Done()
				for b := range work {
					if !opts.SkipCorrupt && int64(b.idx) > minFailed.Load() {
						continue // a lower batch already failed; this one cannot hold the first error
					}
					b.decode(opts.SkipCorrupt, &minFailed)
				}
			}()
		}
	}
	flush := func() {
		if cur == nil {
			return
		}
		b := cur
		cur = nil
		if work != nil {
			work <- b
		} else if opts.SkipCorrupt || int64(b.idx) <= minFailed.Load() {
			b.decode(opts.SkipCorrupt, &minFailed)
		}
	}

	line := 0
	headerRecords := -1
	sawHeader := false
	for sc.Scan() {
		if !opts.SkipCorrupt && minFailed.Load() < math.MaxInt64 {
			break // a shard already hit a bad line; strict mode will fail on it
		}
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if !sawHeader {
			// The first non-empty line is either a version-2 header or,
			// in a legacy dump, already a record.
			sawHeader = true
			var h header
			if json.Unmarshal(raw, &h) == nil && h.Format == FormatName {
				if h.Version != FormatVersion {
					drain(work, &wg)
					return nil, nil, fmt.Errorf("logstore: line %d: unsupported dump version %d (reader speaks %d)",
						line, h.Version, FormatVersion)
				}
				headerRecords = h.Records
				st.Meta = Meta{Start: h.Start, End: h.End, Seed: h.Seed}
				continue
			}
			st.Legacy = true
		}
		if cur == nil {
			cur = &lineBatch{idx: len(batches)}
			batches = append(batches, cur)
		}
		cur.nums = append(cur.nums, line)
		cur.lines = append(cur.lines, append([]byte(nil), raw...))
		if len(cur.lines) >= batchLines {
			flush()
		}
	}
	flush()
	drain(work, &wg)

	if err := sc.Err(); err != nil {
		if !opts.SkipCorrupt {
			return nil, nil, fmt.Errorf("logstore: line %d: %w", line+1, err)
		}
		// A crash-durable dump can end mid-stream (a cut gzip member, an
		// over-long mangled line). Keep what decoded; flag the cut.
		st.Truncated = true
	}

	// Reassemble in input order, verifying the time-ordering invariant the
	// store relies on instead of trusting the dump.
	events := make([]event.Event, 0, total(batches))
	var last time.Time
	for _, b := range batches {
		for i := range b.events {
			if err := b.errs[i]; err != nil {
				if !opts.SkipCorrupt {
					return nil, nil, err
				}
				st.Dropped++
				continue
			}
			e := b.events[i]
			if e == nil {
				continue // past a strict-mode failure; unreachable, but harmless
			}
			if len(events) > 0 && e.When().Before(last) {
				if !opts.SkipCorrupt {
					return nil, nil, fmt.Errorf("logstore: line %d: out-of-order record: %s at %s after %s",
						b.nums[i], e.EventKind(), e.When(), last)
				}
				st.OutOfOrder++
				continue
			}
			last = e.When()
			events = append(events, e)
		}
	}

	st.Records = len(events)
	if len(events) > 0 {
		st.First = events[0].When()
		st.Last = last
	}
	if headerRecords >= 0 {
		accounted := st.Records + st.Dropped + st.OutOfOrder
		if accounted < headerRecords {
			if !opts.SkipCorrupt {
				return nil, nil, fmt.Errorf("logstore: dump truncated: header declares %d records, input held %d",
					headerRecords, accounted)
			}
			st.Missing = headerRecords - accounted
		} else if accounted > headerRecords && !opts.SkipCorrupt {
			return nil, nil, fmt.Errorf("logstore: header declares %d records, input held %d (concatenated dumps?)",
				headerRecords, accounted)
		}
	}

	return events, st, nil
}

// drain closes the work channel (if any) and waits for the shards.
func drain(work chan *lineBatch, wg *sync.WaitGroup) {
	if work != nil {
		close(work)
		wg.Wait()
	}
}

func total(batches []*lineBatch) int {
	n := 0
	for _, b := range batches {
		n += len(b.events)
	}
	return n
}
