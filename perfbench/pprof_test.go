package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime"
	"runtime/pprof"
	"testing"
)

// pb is a tiny protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) msg(num int, m *pb) *pb { return p.bytes(num, m.b) }

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// testProfile has two cpu samples. Sample 1 (30ns): leaf mail.scan inlined
// into mail.Search, called from victim.session. Sample 2 (5ns): leaf
// runtime.mallocgc called from victim.session. Sample 1 uses packed
// repeated fields, sample 2 unpacked ones.
func testProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"manualhijack/internal/mail.(*Mailbox).scan",
		"manualhijack/internal/mail.(*Service).Search",
		"manualhijack/internal/victim.session",
		"runtime.mallocgc"}
	p := &pb{}
	p.msg(1, (&pb{}).varint(1, 1).varint(2, 2))
	p.msg(1, (&pb{}).varint(1, 3).varint(2, 4))
	p.msg(2, (&pb{}).bytes(1, packed(1, 2)).bytes(2, packed(3, 30)))
	p.msg(2, (&pb{}).varint(1, 3).varint(1, 2).varint(2, 1).varint(2, 5))
	// Location 1 holds scan inlined into Search: innermost line first.
	p.msg(4, (&pb{}).varint(1, 1).msg(4, (&pb{}).varint(1, 10)).msg(4, (&pb{}).varint(1, 11)))
	p.msg(4, (&pb{}).varint(1, 2).msg(4, (&pb{}).varint(1, 12)))
	p.msg(4, (&pb{}).varint(1, 3).msg(4, (&pb{}).varint(1, 13)))
	for i, id := range []uint64{10, 11, 12, 13} {
		p.msg(5, (&pb{}).varint(1, id).varint(2, uint64(5+i)))
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	return p.b
}

func TestFoldFlatAndCum(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(testProfile())
	zw.Close()
	for name, data := range map[string][]byte{"plain": testProfile(), "gzip": gz.Bytes()} {
		p, err := parseProfile(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flat, err := p.foldFlat("cpu/nanoseconds")
		if err != nil {
			t.Fatal(err)
		}
		if flat["manualhijack/internal/mail"] != 30 || flat["runtime"] != 5 || flat["manualhijack/internal/victim"] != 0 {
			t.Errorf("%s: flat = %v", name, flat)
		}
		cum, err := p.foldCum("cpu/nanoseconds")
		if err != nil {
			t.Fatal(err)
		}
		// mail appears twice on sample 1's stack but counts once.
		if cum["manualhijack/internal/mail"] != 30 || cum["manualhijack/internal/victim"] != 35 || cum["runtime"] != 5 {
			t.Errorf("%s: cum = %v", name, cum)
		}
		if _, err := p.foldFlat("alloc_space/bytes"); err == nil {
			t.Errorf("%s: folding a missing sample type succeeded", name)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{{0x0a, 0x05, 0x01}, {0xff}, {0x0b}} {
		if _, err := parseProfile(b); err == nil {
			t.Errorf("parseProfile(%x) succeeded", b)
		}
	}
}

var allocSink [][]byte

// TestFoldRuntimeAllocProfile folds a real allocation profile from this
// process: every test allocation happens under testing.tRunner.
func TestFoldRuntimeAllocProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	for i := 0; i < 1000; i++ {
		allocSink = append(allocSink, make([]byte, 1024))
	}
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cum, err := p.foldCum("alloc_space/bytes")
	if err != nil {
		t.Fatal(err)
	}
	if cum["testing"] < 1000*1024 {
		t.Errorf("testing package allocated %v bytes, want >= %d", cum["testing"], 1000*1024)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"manualhijack/internal/mail.(*Mailbox).scan":                            "manualhijack/internal/mail",
		"manualhijack/internal/core.(*World).Run.func1":                         "manualhijack/internal/core",
		"manualhijack/internal/core.mergeable[go.shape.struct { a/b.c }].Merge": "manualhijack/internal/core",
		"runtime.mallocgc":     "runtime",
		"net/mail.ReadMessage": "net/mail",
		"main.main":            "main",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
