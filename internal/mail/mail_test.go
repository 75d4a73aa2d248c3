package mail

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/randx"
	"manualhijack/internal/simtime"
)

type fixture struct {
	dir   *identity.Directory
	clock *simtime.Clock
	log   *logstore.Store
	svc   *Service
}

func newFixture(t *testing.T, n int, seed int64) *fixture {
	t.Helper()
	clock := simtime.NewClock(simtime.Epoch)
	cfg := identity.DefaultConfig(simtime.Epoch)
	cfg.N = n
	dir := identity.NewDirectory(randx.New(seed), cfg)
	log := logstore.New()
	svc := NewService(dir, clock, log)
	return &fixture{dir: dir, clock: clock, log: log, svc: svc}
}

func TestSeedPopulatesMailboxes(t *testing.T) {
	f := newFixture(t, 200, 1)
	f.svc.Seed(randx.New(1), DefaultSeedConfig())
	empty := 0
	f.dir.All(func(a *identity.Account) {
		if f.svc.Mailbox(a.ID).Len() == 0 {
			empty++
		}
	})
	if empty > 0 {
		t.Fatalf("%d mailboxes empty after seed", empty)
	}
	if f.log.Len() != 0 {
		t.Fatalf("seeding logged %d events; history must not be logged", f.log.Len())
	}
}

func TestFinanceAccountRate(t *testing.T) {
	f := newFixture(t, 2000, 2)
	f.svc.Seed(randx.New(2), DefaultSeedConfig())
	withFinance := 0
	f.dir.All(func(a *identity.Account) {
		if f.svc.FinancialValue(a.ID) > 0 {
			withFinance++
		}
	})
	rate := float64(withFinance) / 2000
	if rate < 0.35 || rate > 0.60 {
		t.Fatalf("finance-account rate = %.3f, want ~0.45", rate)
	}
}

func TestSendDeliversToProviderRecipients(t *testing.T) {
	f := newFixture(t, 10, 3)
	a, b := f.dir.Get(1), f.dir.Get(2)
	before := f.svc.Mailbox(b.ID).Len()
	f.svc.Send(SendReq{
		FromAcct: a.ID, FromAddr: a.Addr,
		Recipients: []identity.Address{b.Addr, "outsider@web.org"},
		Keywords:   []string{"lunch"}, Class: event.ClassOrganic,
		Actor: event.ActorOwner,
	})
	if got := f.svc.Mailbox(b.ID).Len(); got != before+1 {
		t.Fatalf("recipient mailbox grew by %d, want 1", got-before)
	}
	// Sender keeps a Sent copy.
	if got := len(f.svc.Mailbox(a.ID).InFolder(event.FolderSent)); got != 1 {
		t.Fatalf("sender sent-folder = %d, want 1", got)
	}
	sent := logstore.Select[event.MessageSent](f.log)
	if len(sent) != 1 || len(sent[0].Recipients) != 2 {
		t.Fatalf("sent events = %+v", sent)
	}
}

func TestSearchLogsAndCounts(t *testing.T) {
	f := newFixture(t, 5, 4)
	a := f.dir.Get(1)
	f.svc.Send(SendReq{
		FromAcct: 2, FromAddr: f.dir.Get(2).Addr,
		Recipients: []identity.Address{a.Addr},
		Keywords:   []string{"wire transfer", "urgent"}, Class: event.ClassOrganic,
		Actor: event.ActorOwner,
	})
	mb := f.svc.Mailbox(a.ID)
	f.svc.Search(a.ID, "wire transfer", 1, event.ActorHijacker)
	if hits := mb.CountMatching("wire transfer"); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	// Case-insensitive substring match.
	f.svc.Search(a.ID, "WIRE", 1, event.ActorHijacker)
	if got := mb.CountMatching("WIRE"); got != 1 {
		t.Fatalf("case-insensitive hits = %d, want 1", got)
	}
	searches := logstore.Select[event.Search](f.log)
	if len(searches) != 2 || searches[0].Actor != event.ActorHijacker {
		t.Fatalf("search events = %+v", searches)
	}
}

func TestFolderAndStarredSemantics(t *testing.T) {
	f := newFixture(t, 5, 5)
	mb := f.svc.Mailbox(1)
	// Hand-plant messages.
	mb.msgs = []Message{
		{ID: 1, Folder: event.FolderInbox, Starred: true},
		{ID: 2, Folder: event.FolderDrafts},
		{ID: 3, Folder: event.FolderSent, Starred: true},
	}
	if got := len(mb.InFolder(event.FolderStarred)); got != 2 {
		t.Fatalf("starred = %d, want 2 (flag spans folders)", got)
	}
	if got := len(mb.InFolder(event.FolderDrafts)); got != 1 {
		t.Fatalf("drafts = %d", got)
	}
	f.svc.OpenFolder(1, event.FolderDrafts, 9, event.ActorHijacker)
	opens := logstore.Select[event.FolderOpened](f.log)
	if len(opens) != 1 || opens[0].Folder != event.FolderDrafts ||
		opens[0].Account != 1 || opens[0].Session != 9 || opens[0].Actor != event.ActorHijacker {
		t.Fatalf("folder events = %+v", opens)
	}
}

func TestReplyToStampedOnOutbound(t *testing.T) {
	f := newFixture(t, 5, 6)
	a, b := f.dir.Get(1), f.dir.Get(2)
	f.svc.SetReplyTo(a.ID, "doppel@evil.test", 1, event.ActorHijacker)
	f.svc.Send(SendReq{
		FromAcct: a.ID, FromAddr: a.Addr,
		Recipients: []identity.Address{b.Addr},
		Class:      event.ClassScam, Actor: event.ActorHijacker,
	})
	sent := logstore.Select[event.MessageSent](f.log)
	if sent[0].ReplyTo != "doppel@evil.test" {
		t.Fatalf("ReplyTo = %q", sent[0].ReplyTo)
	}
	// Delivered copy carries it too.
	var delivered *Message
	f.svc.Mailbox(b.ID).scan(func(m *Message) { delivered = m })
	if delivered == nil || delivered.ReplyTo != "doppel@evil.test" {
		t.Fatalf("delivered copy ReplyTo = %+v", delivered)
	}
}

func TestFilterDivertsIncoming(t *testing.T) {
	f := newFixture(t, 5, 7)
	a, b := f.dir.Get(1), f.dir.Get(2)
	f.svc.CreateFilter(a.ID, Filter{ToTrash: true, ForwardTo: "doppel@evil.test"}, 1, event.ActorHijacker)
	f.svc.Send(SendReq{
		FromAcct: b.ID, FromAddr: b.Addr,
		Recipients: []identity.Address{a.Addr},
		Class:      event.ClassOrganic, Actor: event.ActorOwner,
	})
	mb := f.svc.Mailbox(a.ID)
	trash := mb.InFolder(event.FolderTrash)
	if len(trash) != 1 {
		t.Fatalf("trash = %d, want 1 (filter should divert)", len(trash))
	}
	if !mb.HasForwardingFilter() {
		t.Fatal("forwarding filter not detected")
	}
	var m *Message
	mb.scan(func(x *Message) { m = x })
	if !m.Forwarded {
		t.Fatal("message not marked forwarded")
	}
}

func TestMassDeleteAndRestore(t *testing.T) {
	f := newFixture(t, 5, 8)
	f.svc.Seed(randx.New(8), DefaultSeedConfig())
	a := f.dir.Get(1)
	contactsBefore := len(a.Contacts)
	msgsBefore := f.svc.Mailbox(a.ID).Len()
	if msgsBefore == 0 || contactsBefore == 0 {
		t.Fatal("fixture account has no content")
	}

	deleted := f.svc.MassDelete(a.ID, 1, event.ActorHijacker)
	if deleted != msgsBefore {
		t.Fatalf("deleted = %d, want %d", deleted, msgsBefore)
	}
	if f.svc.Mailbox(a.ID).Len() != 0 || len(a.Contacts) != 0 {
		t.Fatal("mass delete left content behind")
	}
	if got := f.svc.ViewContacts(a.ID, 1, event.ActorHijacker); got != nil {
		t.Fatal("wiped contacts should view as empty")
	}

	// Hijacker settings present before restore.
	f.svc.SetReplyTo(a.ID, "doppel@evil.test", 1, event.ActorHijacker)
	f.svc.CreateFilter(a.ID, Filter{ForwardTo: "doppel@evil.test"}, 1, event.ActorHijacker)

	restored, cleared := f.svc.Restore(a.ID)
	if restored != msgsBefore {
		t.Fatalf("restored = %d, want %d", restored, msgsBefore)
	}
	if !cleared {
		t.Fatal("hijacker settings not cleared")
	}
	if len(a.Contacts) != contactsBefore {
		t.Fatalf("contacts = %d, want %d", len(a.Contacts), contactsBefore)
	}
	mb := f.svc.Mailbox(a.ID)
	if mb.ReplyTo != "" || mb.HasForwardingFilter() {
		t.Fatal("hijacker settings survived restore")
	}
}

func TestRestorePreservesOwnerSettings(t *testing.T) {
	f := newFixture(t, 5, 9)
	a := f.dir.Get(1)
	f.svc.CreateFilter(a.ID, Filter{ToTrash: true}, 1, event.ActorOwner)
	f.svc.SetReplyTo(a.ID, "me.alt@web.org", 1, event.ActorOwner)
	_, cleared := f.svc.Restore(a.ID)
	if cleared {
		t.Fatal("owner settings wrongly reported cleared")
	}
	mb := f.svc.Mailbox(a.ID)
	if len(mb.Filters) != 1 || mb.ReplyTo != "me.alt@web.org" {
		t.Fatal("owner settings removed by restore")
	}
}

func TestRestoreIdempotent(t *testing.T) {
	f := newFixture(t, 5, 10)
	f.svc.Seed(randx.New(10), DefaultSeedConfig())
	a := f.dir.Get(1)
	n := f.svc.Mailbox(a.ID).Len()
	f.svc.MassDelete(a.ID, 1, event.ActorHijacker)
	r1, _ := f.svc.Restore(a.ID)
	r2, _ := f.svc.Restore(a.ID)
	if r1 != n || r2 != 0 {
		t.Fatalf("restore twice: %d then %d, want %d then 0", r1, r2, n)
	}
	if f.svc.Mailbox(a.ID).Len() != n {
		t.Fatal("double restore duplicated messages")
	}
}

func TestSpamReportLogged(t *testing.T) {
	f := newFixture(t, 5, 11)
	f.svc.ReportSpam(2, 77, "x@y.test", 1, event.ClassScam)
	reports := logstore.Select[event.SpamReported](f.log)
	if len(reports) != 1 || reports[0].Class != event.ClassScam || reports[0].Message != 77 {
		t.Fatalf("reports = %+v", reports)
	}
}

func TestUnknownAccountSafe(t *testing.T) {
	f := newFixture(t, 3, 12)
	f.svc.Search(99, "x", 1, event.ActorOwner)
	f.svc.OpenFolder(99, event.FolderInbox, 1, event.ActorOwner)
	if n := f.log.Len(); n != 0 {
		t.Fatalf("unknown-account search/folder logged %d events", n)
	}
	if f.svc.MassDelete(99, 1, event.ActorOwner) != 0 {
		t.Fatal("unknown account delete")
	}
	if n, c := f.svc.Restore(99); n != 0 || c {
		t.Fatal("unknown account restore")
	}
	if f.svc.ViewContacts(99, 1, event.ActorOwner) != nil {
		t.Fatal("unknown account contacts")
	}
}

func TestEventTimesAdvanceWithClock(t *testing.T) {
	f := newFixture(t, 3, 13)
	a := f.dir.Get(1)
	f.svc.Search(a.ID, "x", 1, event.ActorOwner)
	f.clock.Advance(2 * time.Hour)
	f.svc.Search(a.ID, "y", 1, event.ActorOwner)
	searches := logstore.Select[event.Search](f.log)
	if d := searches[1].When().Sub(searches[0].When()); d != 2*time.Hour {
		t.Fatalf("event spacing = %v", d)
	}
}

// Property: delivering any sequence of messages then mass-deleting and
// restoring returns the mailbox to the same size, with no duplicates.
func TestDeleteRestoreRoundTripProperty(t *testing.T) {
	f := newFixture(t, 4, 14)
	a, b := f.dir.Get(1), f.dir.Get(2)
	prop := func(batch uint8) bool {
		n := int(batch % 20)
		for i := 0; i < n; i++ {
			f.svc.Send(SendReq{
				FromAcct: b.ID, FromAddr: b.Addr,
				Recipients: []identity.Address{a.Addr},
				Class:      event.ClassOrganic, Actor: event.ActorOwner,
			})
		}
		mb := f.svc.Mailbox(a.ID)
		before := mb.Len()
		f.svc.MassDelete(a.ID, 1, event.ActorHijacker)
		restored, _ := f.svc.Restore(a.ID)
		if restored != before || mb.Len() != before {
			return false
		}
		seen := map[event.MessageID]bool{}
		ok := true
		mb.scan(func(m *Message) {
			if seen[m.ID] {
				ok = false
			}
			seen[m.ID] = true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// refMailbox is a plain reference model of one mailbox, in the layout the
// packed slice replaced: messages by ID, a delivery-order list, and backed-up
// messages for Restore.
type refMailbox struct {
	msgs    map[event.MessageID]Message
	order   []event.MessageID
	backup  []Message
	filters []Filter
}

func (r *refMailbox) add(m Message) {
	r.msgs[m.ID] = m
	r.order = append(r.order, m.ID)
}

func (r *refMailbox) live() []Message {
	var out []Message
	for _, id := range r.order {
		if m, ok := r.msgs[id]; ok {
			out = append(out, m)
		}
	}
	return out
}

func (r *refMailbox) massDelete() {
	r.backup = append(r.backup, r.live()...)
	r.msgs = map[event.MessageID]Message{}
	r.order = nil
}

func (r *refMailbox) restore() {
	for _, m := range r.backup {
		if _, ok := r.msgs[m.ID]; !ok {
			r.add(m)
		}
	}
	r.backup = nil
	var keep []Filter
	for _, f := range r.filters {
		if f.CreatedBy != event.ActorHijacker {
			keep = append(keep, f)
		}
	}
	r.filters = keep
}

// refMatches is the reference search semantics: case-insensitive substring
// match on keywords, plus the is:starred and filename:(a or b) operators.
func refMatches(m Message, query string) bool {
	q := strings.ToLower(query)
	if q == "is:starred" {
		return m.Starred
	}
	terms := []string{q}
	if rest, ok := strings.CutPrefix(q, "filename:("); ok {
		terms = strings.Split(strings.TrimSuffix(rest, ")"), " or ")
	}
	for _, k := range m.Keywords {
		for _, t := range terms {
			if strings.Contains(strings.ToLower(k), t) {
				return true
			}
		}
	}
	return false
}

// Property: under any sequence of deliveries (through ToTrash and
// forwarding filters), sends, mass deletions and restores, the mailbox
// agrees with the reference model on Len, scan order, every folder's
// contents and every query's hit count.
func TestMailboxMatchesReferenceModel(t *testing.T) {
	lexicon := []string{"Wire transfer", "lunch", "holiday.jpg", "PASSWORD", "scan png"}
	queries := []string{"wire", "LUNCH", "jpg", "password", "png", "absent",
		"is:starred", "filename:(jpg or png)"}
	folders := []event.Folder{event.FolderInbox, event.FolderSent, event.FolderDrafts,
		event.FolderTrash, event.FolderStarred}

	prop := func(ops []uint16) bool {
		f := newFixture(t, 4, 16)
		f.svc.Seed(randx.New(16), SeedConfig{MeanMessages: 8, FinanceAccountRate: 0.5, StarRate: 0.3, DraftRate: 0.2})
		a, b := f.dir.Get(1), f.dir.Get(2)
		mb := f.svc.Mailbox(a.ID)
		ref := &refMailbox{msgs: map[event.MessageID]Message{}}
		mb.scan(func(m *Message) { ref.add(*m) })

		for step, op := range ops {
			kw := []string{lexicon[int(op>>3)%len(lexicon)]}
			switch op % 5 {
			case 0: // b writes to a: a's copy goes through a's filters.
				id := f.svc.Send(SendReq{FromAcct: b.ID, FromAddr: b.Addr,
					Recipients: []identity.Address{a.Addr}, Keywords: kw,
					Class: event.ClassOrganic, Actor: event.ActorOwner})
				m := Message{ID: id + 1, Keywords: kw, Folder: event.FolderInbox}
				for _, fl := range ref.filters {
					if fl.ToTrash {
						m.Folder = event.FolderTrash
					}
					if fl.ForwardTo != "" {
						m.Forwarded = true
					}
				}
				ref.add(m)
			case 1: // a writes to b: a keeps a Sent copy.
				id := f.svc.Send(SendReq{FromAcct: a.ID, FromAddr: a.Addr,
					Recipients: []identity.Address{b.Addr}, Keywords: kw,
					Class: event.ClassOrganic, Actor: event.ActorOwner})
				ref.add(Message{ID: id, Keywords: kw, Folder: event.FolderSent})
			case 2:
				fl := Filter{ToTrash: op&8 != 0, CreatedBy: event.ActorOwner}
				if op&16 != 0 {
					fl.ForwardTo = "doppel@evil.test"
				}
				if op&32 != 0 {
					fl.CreatedBy = event.ActorHijacker
				}
				f.svc.CreateFilter(a.ID, fl, 1, fl.CreatedBy)
				ref.filters = append(ref.filters, fl)
			case 3:
				f.svc.MassDelete(a.ID, 1, event.ActorHijacker)
				ref.massDelete()
			case 4:
				f.svc.Restore(a.ID)
				ref.restore()
			}

			want := ref.live()
			if mb.Len() != len(want) {
				t.Logf("step %d: Len = %d, want %d", step, mb.Len(), len(want))
				return false
			}
			i := 0
			ok := true
			mb.scan(func(m *Message) {
				w := want[i]
				if m.ID != w.ID || m.Folder != w.Folder || m.Forwarded != w.Forwarded ||
					m.Starred != w.Starred || strings.Join(m.Keywords, "|") != strings.Join(w.Keywords, "|") {
					t.Logf("step %d: scan[%d] = %+v, want %+v", step, i, *m, w)
					ok = false
				}
				i++
			})
			if !ok {
				return false
			}
			for _, fo := range folders {
				var wantIDs []event.MessageID
				for _, m := range want {
					if (fo == event.FolderStarred && m.Starred) || (fo != event.FolderStarred && m.Folder == fo) {
						wantIDs = append(wantIDs, m.ID)
					}
				}
				if got := mb.InFolder(fo); !reflect.DeepEqual(got, wantIDs) {
					t.Logf("step %d: InFolder(%s) = %v, want %v", step, fo, got, wantIDs)
					return false
				}
			}
			for _, q := range queries {
				n := 0
				for _, m := range want {
					if refMatches(m, q) {
						n++
					}
				}
				if got := mb.CountMatching(q); got != n {
					t.Logf("step %d: CountMatching(%q) = %d, want %d", step, q, got, n)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMailActionAllocFences pins Search and OpenFolder as log-only
// actions: their allocations must not depend on mailbox size, so a full
// scan coming back fails here. Keywords are mixed-case, so a scan would
// allocate a lower-cased copy per message.
func TestMailActionAllocFences(t *testing.T) {
	measure := func(n int) (search, open float64) {
		f := newFixture(t, 3, 17)
		mb := f.svc.Mailbox(1)
		for i := 0; i < n; i++ {
			mb.msgs = append(mb.msgs, Message{ID: event.MessageID(i + 1),
				Keywords: []string{"Wire Transfer"}, Folder: event.FolderInbox, Starred: i%2 == 0})
		}
		search = testing.AllocsPerRun(200, func() {
			f.svc.Search(1, "wire", 1, event.ActorHijacker)
		})
		open = testing.AllocsPerRun(200, func() {
			f.svc.OpenFolder(1, event.FolderStarred, 1, event.ActorHijacker)
		})
		return search, open
	}
	smallSearch, smallOpen := measure(10)
	bigSearch, bigOpen := measure(10_000)
	if bigSearch != smallSearch {
		t.Errorf("Search: %.0f allocs on 10,000 messages vs %.0f on 10; it must not scan", bigSearch, smallSearch)
	}
	if bigOpen != smallOpen {
		t.Errorf("OpenFolder: %.0f allocs on 10,000 messages vs %.0f on 10; it must not scan", bigOpen, smallOpen)
	}
}

func TestSearchOperators(t *testing.T) {
	f := newFixture(t, 5, 15)
	mb := f.svc.Mailbox(1)
	mb.msgs = []Message{
		{ID: 1, Keywords: []string{"vacation", "jpg"}, Starred: true, Folder: event.FolderInbox},
		{ID: 2, Keywords: []string{"report", "png"}, Folder: event.FolderInbox},
		{ID: 3, Keywords: []string{"lunch"}, Folder: event.FolderInbox},
	}

	if got := mb.CountMatching("is:starred"); got != 1 {
		t.Fatalf("is:starred = %d, want 1", got)
	}
	if got := mb.CountMatching("filename:(jpg or jpeg or png)"); got != 2 {
		t.Fatalf("filename query = %d, want 2", got)
	}
	if got := mb.CountMatching("filename:(pdf)"); got != 0 {
		t.Fatalf("filename pdf = %d, want 0", got)
	}
	// Plain queries still work, case-insensitively.
	if got := mb.CountMatching("LUNCH"); got != 1 {
		t.Fatalf("plain query = %d, want 1", got)
	}
}
