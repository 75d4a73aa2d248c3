package mail

import (
	"testing"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/randx"
	"manualhijack/internal/simtime"
)

// benchDirectory builds an n-account directory on a fresh clock.
func benchDirectory(n int) (*identity.Directory, *simtime.Clock) {
	cfg := identity.DefaultConfig(simtime.Epoch)
	cfg.N = n
	return identity.NewDirectory(randx.New(1), cfg), simtime.NewClock(simtime.Epoch)
}

// benchLogReset is how many actions a benchmark logs before it swaps in
// an empty log store, so the log does not grow with b.N.
const benchLogReset = 1 << 16

// BenchmarkMailSeed seeds a 1,000-account service with the study's
// default history (~61k messages per op).
func BenchmarkMailSeed(b *testing.B) {
	dir, clock := benchDirectory(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := NewService(dir, clock, logstore.New())
		svc.Seed(randx.New(1), DefaultSeedConfig())
	}
}

// benchSendReset is how many messages BenchmarkMailSend sends before it
// reseeds the service: the four mailboxes grow from the seeded ~60
// messages by a few hundred, the size range of a study mailbox.
const benchSendReset = 256

// BenchmarkMailSend sends one message from a provider account to three
// provider recipients: a Sent copy, three deliveries and one log event.
func BenchmarkMailSend(b *testing.B) {
	dir, clock := benchDirectory(10)
	from := dir.Get(1)
	req := SendReq{
		FromAcct: from.ID, FromAddr: from.Addr,
		Recipients: []identity.Address{dir.Get(2).Addr, dir.Get(3).Addr, dir.Get(4).Addr},
		Keywords:   []string{"lunch"}, Class: event.ClassOrganic,
		Session: 1, Actor: event.ActorOwner,
	}
	seeded := func() *Service {
		svc := NewService(dir, clock, logstore.New())
		svc.Seed(randx.New(1), DefaultSeedConfig())
		return svc
	}
	svc := seeded()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchSendReset == benchSendReset-1 {
			b.StopTimer()
			svc = seeded()
			b.StartTimer()
		}
		svc.Send(req)
	}
}

// benchMailbox returns a service whose account 1 holds about a thousand
// seeded messages: the size at which a scanning action shows.
func benchMailbox() *Service {
	dir, clock := benchDirectory(10)
	svc := NewService(dir, clock, logstore.New())
	cfg := DefaultSeedConfig()
	cfg.MeanMessages = 1000
	svc.Seed(randx.New(1), cfg)
	return svc
}

// BenchmarkMailSearch logs one search on a ~1,000-message mailbox.
func BenchmarkMailSearch(b *testing.B) {
	svc := benchMailbox()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchLogReset == benchLogReset-1 {
			b.StopTimer()
			svc.log = logstore.New()
			b.StartTimer()
		}
		svc.Search(1, "wire transfer", 1, event.ActorHijacker)
	}
}

// BenchmarkMailOpenFolder logs one folder view on a ~1,000-message
// mailbox.
func BenchmarkMailOpenFolder(b *testing.B) {
	svc := benchMailbox()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchLogReset == benchLogReset-1 {
			b.StopTimer()
			svc.log = logstore.New()
			b.StartTimer()
		}
		svc.OpenFolder(1, event.FolderInbox, 1, event.ActorOwner)
	}
}
