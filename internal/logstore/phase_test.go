package logstore

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
)

// TestSealPublishHandoff pins the supported cross-goroutine pattern of
// the two-phase contract: a single writer appends and seals; readers on
// other goroutines synchronize on nothing but Sealed() before reading.
// Under -race this asserts the atomic release/acquire publish actually
// orders the writer's appends and index build before the readers' reads —
// the guarantee the study's analysis fan-out relies on now that Append
// takes no lock.
func TestSealPublishHandoff(t *testing.T) {
	const records = 5000
	s := New()
	go func() {
		for i := 0; i < records; i++ {
			s.Append(login(t0.Add(time.Duration(i)*time.Second), identity.AccountID(i%17+1), event.ActorOwner))
		}
		s.Seal()
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !s.Sealed() {
				runtime.Gosched()
			}
			switch g % 3 {
			case 0:
				if n := len(Select[event.Login](s)); n != records {
					t.Errorf("reader saw %d logins, want %d", n, records)
				}
			case 1:
				if kc := s.KindCounts(); kc[event.KindLogin] != records {
					t.Errorf("reader saw counts %v, want %d logins", kc, records)
				}
			case 2:
				n := 0
				s.Scan(func(event.Event) { n++ })
				if n != records {
					t.Errorf("reader scanned %d records, want %d", n, records)
				}
			}
		}(g)
	}
	wg.Wait()
}

// Append must stay amortized ≤1 allocation per record (slice growth only)
// on a cold store, and allocation-free on a Reserve-sized one — the
// single-writer rewrite removed the per-append lock, and these assertions
// keep the remaining costs from silently regressing.
func TestAppendAmortizedAllocs(t *testing.T) {
	// Box the record once: interface conversion at the call site is the
	// caller's allocation, not Append's.
	var e event.Event = login(t0, 1, event.ActorOwner)

	cold := New()
	allocs := testing.AllocsPerRun(20000, func() { cold.Append(e) })
	if allocs > 1 {
		t.Fatalf("cold Append allocated %.3f times per record, want amortized <= 1", allocs)
	}

	warm := New()
	warm.Reserve(30000)
	allocs = testing.AllocsPerRun(20000, func() { warm.Append(e) })
	if allocs != 0 {
		t.Fatalf("reserved Append allocated %.3f times per record, want 0", allocs)
	}
}

func TestReservePreservesRecords(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Append(login(t0.Add(time.Duration(i)*time.Minute), identity.AccountID(i+1), event.ActorOwner))
	}
	s.Reserve(5000)
	if s.Len() != 10 {
		t.Fatalf("Reserve dropped records: len = %d", s.Len())
	}
	s.Reserve(1) // shrinking request is a no-op
	s.Append(login(t0.Add(time.Hour), 99, event.ActorOwner))
	if s.Len() != 11 {
		t.Fatalf("append after Reserve: len = %d", s.Len())
	}
	s.Seal()
	if got := Select[event.Login](s); len(got) != 11 || got[10].Account != 99 {
		t.Fatalf("records corrupted by Reserve: %d", len(got))
	}
}

// The two-pass index build must produce partitions exactly as large as
// their kind's population — appending past a partition's capacity would
// reallocate away from the shared backing array, so equality of len and
// cap proves the counting pass matched the fill pass.
func TestSealPartitionsExactlySized(t *testing.T) {
	s := mixedStore(300)
	s.Seal()
	for k, part := range s.byKind {
		if len(part) != cap(part) {
			t.Fatalf("partition %s: len %d != cap %d (not exact-size allocated)", k, len(part), cap(part))
		}
	}
	total := 0
	for _, part := range s.byKind {
		total += len(part)
	}
	if total != s.Len() {
		t.Fatalf("partitions hold %d records, store holds %d", total, s.Len())
	}
}
