// Package hijacker implements manual-hijacker crews following the playbook
// the paper documents: collect phished credentials, log in fast from a
// disciplined IP pool, spend ~3 minutes assessing the account's value
// (mailbox searches for financial terms, significant-folder opens, a
// contact-list view), abandon low-value accounts, exploit valuable ones
// with semi-personalized scams or contact-targeted phishing, and apply
// retention tactics (lockout, recovery-option changes, filters, Reply-To
// doppelgangers, 2-step-verification lockout with crew phones).
//
// §5.5's "ordinary office job" evidence is modeled directly: crew members
// work a tight daily schedule with a synchronized one-hour lunch break and
// weekends off, share tooling (one device fingerprint per crew) and phone
// pools, and work different victims from different IPs in parallel.
package hijacker

import (
	"fmt"
	"net/netip"
	"time"

	"manualhijack/internal/auth"
	"manualhijack/internal/challenge"
	"manualhijack/internal/event"
	"manualhijack/internal/geo"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/mail"
	"manualhijack/internal/phishkit"
	"manualhijack/internal/randx"
	"manualhijack/internal/scam"
	"manualhijack/internal/simtime"
)

// Language selects the crew's search-term lexicon skew.
type Language string

// Crew languages.
const (
	LangEN Language = "en"
	LangFR Language = "fr"
	LangES Language = "es"
	LangZH Language = "zh"
)

// Tactics is the era-dependent retention-tactic profile (§5.4). The
// 2011→2012 evolution — mass deletion collapsing from 46% to 1.6% of
// lockouts once the provider made deleted content restorable, recovery-
// option changes dropping from 60% to 21% — is expressed by running worlds
// with different profiles.
type Tactics struct {
	// LockoutRate is the probability of changing the password (locking the
	// owner out) after exploitation.
	LockoutRate float64
	// MassDeleteGivenLockout is the probability of wiping mail/contacts
	// when locking out (2011: 0.46; 2012: 0.016).
	MassDeleteGivenLockout float64
	// RecoveryChangeRate is the probability of changing recovery options
	// (2011: 0.60; 2012: 0.21).
	RecoveryChangeRate float64
	// FilterRate installs a divert/forward filter (2012 sample: 0.15).
	FilterRate float64
	// ReplyToRate configures a doppelganger Reply-To (2012 sample: 0.26).
	ReplyToRate float64
	// TwoSVLockoutRate enrolls 2-step verification with a crew phone (the
	// short-lived 2012 tactic behind Figure 12; zero in other eras).
	TwoSVLockoutRate float64
}

// Tactics2011 is the October 2011 profile.
func Tactics2011() Tactics {
	return Tactics{
		LockoutRate:            0.55,
		MassDeleteGivenLockout: 0.46,
		RecoveryChangeRate:     0.60,
		FilterRate:             0.10,
		ReplyToRate:            0.20,
		TwoSVLockoutRate:       0,
	}
}

// Tactics2012 is the November 2012 profile.
func Tactics2012() Tactics {
	return Tactics{
		LockoutRate:            0.55,
		MassDeleteGivenLockout: 0.016,
		RecoveryChangeRate:     0.21,
		FilterRate:             0.15,
		ReplyToRate:            0.26,
		// The paper's phone dataset is 300 numbers against Google-scale
		// hijack volume; the simulated rate is boosted so Figure 12 has
		// statistical power at sim scale (see EXPERIMENTS.md).
		TwoSVLockoutRate: 0.45,
	}
}

// Tactics2014 is the January 2014 profile (the phone tactic abandoned).
func Tactics2014() Tactics {
	t := Tactics2012()
	t.TwoSVLockoutRate = 0
	return t
}

// ManualArchetype tags the manual-hijacking crews this package models —
// the first entry of the playbook registry (internal/playbook).
const ManualArchetype = "manual"

// Config describes one crew.
type Config struct {
	Name     string
	Country  geo.Country
	Language Language
	// Archetype is the ground-truth playbook tag stamped on every login
	// and hijack-lifecycle record the crew emits. DefaultConfig sets it to
	// ManualArchetype; alternative attacker playbooks live in
	// internal/playbook.
	Archetype string
	// Members is how many individuals work the queue in parallel.
	Members int
	// WorkStartUTC/WorkEndUTC bound the working day; LunchUTC is the
	// synchronized one-hour break. WeekendsOff keeps Saturday/Sunday idle.
	WorkStartUTC int
	WorkEndUTC   int
	LunchUTC     int
	WeekendsOff  bool
	// IPPoolSize caps how many fresh addresses the crew's cloaking service
	// hands out per day (addresses are allocated lazily as the day's
	// earlier ones fill up).
	IPPoolSize int
	// MaxAccountsPerIPDay is the self-imposed detection-avoidance cap
	// (§5.1: consistently under 10 distinct accounts per IP per day).
	MaxAccountsPerIPDay int
	// PhonePoolSize bounds the shared phone pool for the 2SV tactic.
	PhonePoolSize int
	Tactics       Tactics
	// ContactPhishing launches phishing campaigns against the victim's
	// contacts during exploitation (drives the 36× contact-hijack rate).
	ContactPhishing bool
	// RecoveryFraudRate is the chance the crew responds to a stale
	// password — a credential that no longer logs in — by filing a
	// fraudulent account-recovery claim and trying to guess the knowledge
	// fallback (§6.3's impostor risk). Zero disables.
	RecoveryFraudRate float64
	// DeviceSpoofing mimics a common consumer browser fingerprint instead
	// of the crew's shared kit — §8.1 notes hijackers have "some
	// additional knowledge of using IP cloaking services and browser
	// plugins". It suppresses the login-risk analyzer's new-device signal.
	DeviceSpoofing bool
	// HarvestLuresPerDay sizes the crew's recurring daily campaign against
	// its pool of harvested contacts. Crews keep re-phishing the contacts
	// of past victims on a daily schedule (§5.5: "the same daily time
	// table, defining when to process the newly gathered password lists"),
	// which sustains the contact-targeting loop past page takedowns. Zero
	// disables the recurring campaigns.
	HarvestLuresPerDay int
}

// DefaultConfig returns a crew template for the given origin.
func DefaultConfig(name string, country geo.Country, lang Language) Config {
	return Config{
		Name: name, Country: country, Language: lang,
		Archetype:           ManualArchetype,
		Members:             4,
		WorkStartUTC:        8,
		WorkEndUTC:          17,
		LunchUTC:            12,
		WeekendsOff:         true,
		IPPoolSize:          40,
		MaxAccountsPerIPDay: 10,
		PhonePoolSize:       30,
		Tactics:             Tactics2012(),
		ContactPhishing:     true,
		HarvestLuresPerDay:  20,
		RecoveryFraudRate:   0.25,
	}
}

// Contact-campaign effectiveness: mail that appears to come from a
// regular contact is treated more leniently by filters and humans
// (Jagatic et al., cited in §4), but the rates stay subcritical so the
// contact-targeting loop amplifies rather than saturates the population.
const (
	contactClickRate  = 0.30
	contactConversion = 0.20
)

// Listener receives hijack lifecycle callbacks (wired to the victim and
// recovery machinery by the world assembler).
type Listener interface {
	// HijackEnded fires when the crew finishes with an account.
	HijackEnded(crew string, acct identity.AccountID, hijackedAt time.Time, lockedOut, exploited bool)
}

// Crew is one hijacker group. It implements phishkit.CredentialSink.
type Crew struct {
	cfg   Config
	clock *simtime.Clock
	log   *logstore.Store
	rng   *randx.Rand

	dir  *identity.Directory
	mail *mail.Service
	auth *auth.Service
	inf  *phishkit.Infrastructure
	plan *geo.IPPlan
	gen  *scam.Generator

	listener Listener

	queue       []phishkit.Credential
	seen        map[identity.AccountID]bool
	exploitMark map[identity.AccountID]bool
	ips         []netip.Addr
	ipDayStart  time.Time
	ipUse       map[netip.Addr]*ipDay
	phones      []geo.Phone
	device      string
	ticking     bool
	terms       *randx.Weighted[string]

	// harvest is the pool of contact addresses gathered from exploited
	// accounts, re-phished daily.
	harvest        []identity.Address
	harvestSet     map[identity.Address]bool
	lastHarvestDay time.Time

	recovery RecoveryFiler

	// Stats counters exposed for calibration and tests.
	Processed     int
	LoggedIn      int
	Exploited     int
	Abandoned     int
	LockedOut     int
	PhoneLocks    int
	FraudAttempts int
	FraudWins     int
}

// RecoveryFiler is the slice of the recovery service crews abuse for
// impostor claims.
type RecoveryFiler interface {
	FileFraudClaim(acct identity.AccountID, onSuccess func(newPassword string))
}

type ipDay struct {
	day      time.Time
	accounts map[identity.AccountID]bool
}

// NewCrew assembles a crew.
func NewCrew(
	cfg Config,
	clock *simtime.Clock,
	log *logstore.Store,
	rng *randx.Rand,
	dir *identity.Directory,
	mailSvc *mail.Service,
	authSvc *auth.Service,
	inf *phishkit.Infrastructure,
	plan *geo.IPPlan,
) *Crew {
	if cfg.Archetype == "" {
		cfg.Archetype = ManualArchetype
	}
	crng := rng.Fork("crew/" + cfg.Name)
	c := &Crew{
		cfg: cfg, clock: clock, log: log, rng: crng,
		dir: dir, mail: mailSvc, auth: authSvc, inf: inf, plan: plan,
		gen:         scam.NewGenerator(crng.Fork("scam")),
		seen:        make(map[identity.AccountID]bool),
		exploitMark: make(map[identity.AccountID]bool),
		ipUse:       make(map[netip.Addr]*ipDay),
		device:      "kit-" + cfg.Name,
		terms:       lexiconFor(cfg.Language),
		harvestSet:  make(map[identity.Address]bool),
	}
	for i := 0; i < cfg.PhonePoolSize; i++ {
		c.phones = append(c.phones, geo.NewPhone(crng, cfg.Country))
	}
	return c
}

// SetListener installs the lifecycle callback.
func (c *Crew) SetListener(l Listener) { c.listener = l }

// SetRecovery gives the crew access to the recovery service for impostor
// claims (wired by the world assembler; optional).
func (c *Crew) SetRecovery(r RecoveryFiler) { c.recovery = r }

// Name returns the crew name.
func (c *Crew) Name() string { return c.cfg.Name }

// Country returns the crew's origin.
func (c *Crew) Country() geo.Country { return c.cfg.Country }

// Archetype returns the crew's playbook tag (playbook.Actor contract).
func (c *Crew) Archetype() string { return c.cfg.Archetype }

// ActorStats reports the crew's headline counters (playbook stats
// contract, shared with the scaffolded archetypes).
func (c *Crew) ActorStats() (processed, loggedIn, exploited int) {
	return c.Processed, c.LoggedIn, c.Exploited
}

// QueueLen returns the pending-credential backlog.
func (c *Crew) QueueLen() int { return len(c.queue) }

// CredentialCaptured implements phishkit.CredentialSink: freshly phished
// credentials enter the crew's work queue.
func (c *Crew) CredentialCaptured(cred phishkit.Credential) {
	if c.seen[cred.Account] {
		return
	}
	c.seen[cred.Account] = true
	c.queue = append(c.queue, cred)
}

// Start schedules the crew's work loop until end. Members poll the queue
// every few minutes during working hours, which — combined with the
// lunch break and weekends — produces the paper's response-time curve
// (Figure 7: 20% of decoys accessed within 30 minutes, 50% within 7 h).
func (c *Crew) Start(end time.Time) {
	if c.ticking {
		panic("hijacker: crew started twice")
	}
	c.ticking = true
	c.clock.Every(7*time.Minute, end, c.tick)
}

// working reports whether the crew is at its desks.
func (c *Crew) working(t time.Time) bool {
	if c.cfg.WeekendsOff {
		switch t.Weekday() {
		case time.Saturday, time.Sunday:
			return false
		}
	}
	h := t.Hour()
	if h < c.cfg.WorkStartUTC || h >= c.cfg.WorkEndUTC {
		return false
	}
	return h != c.cfg.LunchUTC
}

// tick processes up to Members credentials and runs the daily
// harvested-contact campaign.
func (c *Crew) tick() {
	now := c.clock.Now()
	if !c.working(now) {
		return
	}
	c.dailyHarvestCampaign(now)
	for i := 0; i < c.cfg.Members && len(c.queue) > 0; i++ {
		cred := c.queue[0]
		if !c.process(cred) {
			return // IP pool exhausted for today; resume tomorrow
		}
		c.queue = c.queue[1:]
	}
}

// dailyHarvestCampaign re-phishes a sample of the harvested contact pool
// once per working day.
func (c *Crew) dailyHarvestCampaign(now time.Time) {
	if c.cfg.HarvestLuresPerDay <= 0 || len(c.harvest) == 0 {
		return
	}
	day := dayOf(now)
	if c.lastHarvestDay.Equal(day) {
		return
	}
	c.lastHarvestDay = day
	camp := phishkit.DefaultCampaign(event.TargetMail, c.cfg.HarvestLuresPerDay)
	camp.Victims = randx.Sample(c.rng, c.harvest, c.cfg.HarvestLuresPerDay)
	camp.Sink = c
	camp.ClickRate = contactClickRate
	camp.Conversion = contactConversion
	camp.ClickDelayMean = 20 * time.Hour
	c.inf.Launch(camp)
}

// pickIP returns an IP whose distinct-account count today is under the
// discipline cap. The crew fills one cloaking-service address fully
// before requesting the next (that keeps the per-IP daily average just
// under the cap, as in Figure 8), allocates fresh addresses lazily up to
// IPPoolSize per day, and stops for the day when even that is exhausted —
// the cap is the discipline, not a suggestion.
func (c *Crew) pickIP(acct identity.AccountID) (netip.Addr, bool) {
	day := dayOf(c.clock.Now())
	if !c.ipDayStart.Equal(day) {
		c.ipDayStart = day
		c.ips = c.ips[:0]
	}
	for _, ip := range c.ips {
		u := c.ipUse[ip]
		if u.accounts[acct] || len(u.accounts) < c.cfg.MaxAccountsPerIPDay {
			u.accounts[acct] = true
			return ip, true
		}
	}
	if len(c.ips) >= c.cfg.IPPoolSize {
		return netip.Addr{}, false
	}
	ip := c.plan.Addr(c.rng, c.cfg.Country)
	c.ips = append(c.ips, ip)
	c.ipUse[ip] = &ipDay{day: day, accounts: map[identity.AccountID]bool{acct: true}}
	return ip, true
}

func (c *Crew) principal() challenge.Principal {
	return challenge.Principal{Phones: c.phones, KnowledgeSkill: 0.2}
}

// loginDevice is the fingerprint presented at login: the crew's shared
// kit, or — for device-spoofing crews — the victim's own usual
// fingerprint, defeating the new-device signal.
func (c *Crew) loginDevice(acct identity.AccountID) string {
	if c.cfg.DeviceSpoofing {
		return identity.DeviceFingerprint(acct)
	}
	return c.device
}

// process works one credential end to end. It reports false when no
// disciplined IP is available (the credential stays queued).
func (c *Crew) process(cred phishkit.Credential) bool {
	ip, ok := c.pickIP(cred.Account)
	if !ok {
		return false
	}
	c.Processed++
	device := c.loginDevice(cred.Account)
	res := c.auth.Login(auth.LoginReq{
		Account: cred.Account, Password: cred.Password, IP: ip,
		DeviceID: device, Principal: c.principal(), Actor: event.ActorHijacker,
		Archetype: c.cfg.Archetype,
	})
	if res.Outcome == event.LoginWrongPassword {
		// Retry with a trivial variant; stale passwords stay stale.
		res = c.auth.Login(auth.LoginReq{
			Account: cred.Account, Password: cred.Password + "1", IP: ip,
			DeviceID: device, Principal: c.principal(), Actor: event.ActorHijacker,
			Archetype: c.cfg.Archetype,
		})
	}
	if res.Outcome == event.LoginWrongPassword && c.recovery != nil &&
		c.rng.Bool(c.cfg.RecoveryFraudRate) {
		// The phished password is stale; try the recovery route instead
		// (§6.3: would-be hijackers "may succeed by guessing the answer").
		acct := cred.Account
		c.clock.After(c.rng.DurationBetween(time.Hour, 8*time.Hour), func() {
			c.FraudAttempts++
			c.recovery.FileFraudClaim(acct, func(newPassword string) {
				c.FraudWins++
				// The won account enters the normal work queue.
				c.queue = append(c.queue, phishkit.Credential{
					Account: acct, Addr: c.dir.Get(acct).Addr,
					Password: newPassword, At: c.clock.Now(),
				})
			})
		})
	}
	if res.Outcome != event.LoginSuccess {
		return true
	}
	c.LoggedIn++
	start := c.clock.Now()
	c.log.Append(event.HijackStarted{
		Base: event.Base{Time: start}, Account: cred.Account,
		Crew: c.cfg.Name, Session: res.Session, Archetype: c.cfg.Archetype,
	})
	fromTargeted := false
	if p := c.inf.Page(cred.Page); p != nil && p.Targeted {
		fromTargeted = true
	}
	c.assess(cred.Account, res.Session, start, fromTargeted)
	return true
}

// assess runs the value-assessment phase: a few searches, significant
// folder opens, a contacts view — spread over an Exp(3 min) budget — then
// the exploit/abandon decision (§5.2).
func (c *Crew) assess(acct identity.AccountID, sess event.SessionID, start time.Time, fromTargeted bool) {
	budget := c.rng.ExpDuration(3 * time.Minute)
	if budget < 20*time.Second {
		budget = 20 * time.Second
	}
	searches := 1 + c.rng.Intn(4)
	step := budget / time.Duration(searches+3)

	state := &assessState{acct: acct, sess: sess, start: start, budget: budget, fromTargeted: fromTargeted}
	elapsed := time.Duration(0)
	for i := 0; i < searches; i++ {
		elapsed += step
		c.clock.Schedule(start.Add(elapsed), func() {
			term := c.searchTerm()
			c.mail.Search(acct, term, sess, event.ActorHijacker)
			if isFinanceTerm(term) && c.mail.Mailbox(acct).CountMatching(term) > 0 {
				state.financeHits++
			}
		})
	}
	// Significant folders, with the paper's observed open rates (fixed
	// iteration order: map ranging would consume randomness
	// nondeterministically).
	folderOdds := []struct {
		folder event.Folder
		p      float64
	}{
		{event.FolderStarred, 0.16},
		{event.FolderDrafts, 0.11},
		{event.FolderSent, 0.05},
		{event.FolderTrash, 0.008},
	}
	for _, fo := range folderOdds {
		folder, p := fo.folder, fo.p
		if c.rng.Bool(p) {
			elapsed += step / 2
			f := folder
			c.clock.Schedule(start.Add(elapsed), func() {
				c.mail.OpenFolder(acct, f, sess, event.ActorHijacker)
			})
		}
	}
	// Contact-list review to size the scam/phishing victim pool.
	elapsed += step
	c.clock.Schedule(start.Add(elapsed), func() {
		state.contacts = c.mail.ViewContacts(acct, sess, event.ActorHijacker)
	})
	// Decision point.
	c.clock.Schedule(start.Add(budget), func() { c.decide(state) })
}

type assessState struct {
	acct        identity.AccountID
	sess        event.SessionID
	start       time.Time
	budget      time.Duration
	financeHits int
	contacts    []identity.Address
	// fromTargeted marks victims acquired through the crew's own
	// contact-targeted campaigns. Their contact lists largely coincide
	// with the pool the crew already holds (contact graphs are clustered),
	// so the crew only harvests fresh lists — and launches fresh contact
	// campaigns — for mass-campaign victims.
	fromTargeted bool
}

// decide closes the assessment and either exploits or abandons.
func (c *Crew) decide(st *assessState) {
	var pExploit float64
	switch {
	case st.financeHits > 0 && len(st.contacts) >= 5:
		pExploit = 0.90
	case st.financeHits > 0:
		pExploit = 0.70
	case len(st.contacts) >= 15:
		pExploit = 0.45
	default:
		pExploit = 0.05
	}
	exploited := c.rng.Bool(pExploit) && len(st.contacts) > 0
	c.log.Append(event.HijackAssessed{
		Base: event.Base{Time: c.clock.Now()}, Account: st.acct,
		Crew: c.cfg.Name, Duration: st.budget, Exploited: exploited,
		Archetype: c.cfg.Archetype,
	})
	if !exploited {
		c.Abandoned++
		c.finish(st, false)
		return
	}
	c.Exploited++
	c.exploitMark[st.acct] = true
	c.exploit(st)
}

// exploit runs the 15–20 minute monetization phase (§5.3) followed by
// retention tactics (§5.4). Whatever the account is used for — scams or
// phishing blasts — the crew also phishes the victim's contact list from
// its own infrastructure to source the next victims.
func (c *Crew) exploit(st *assessState) {
	work := c.rng.DurationBetween(15*time.Minute, 20*time.Minute)
	acct := c.dir.Get(st.acct)

	pageID := c.launchContactCampaign(st)
	if c.rng.Bool(0.65) {
		c.sendScams(st, acct, work)
	} else {
		c.sendPhishing(st, acct, work, pageID)
	}
	c.clock.Schedule(c.clock.Now().Add(work), func() { c.retainAndFinish(st) })
}

// sendScams mails the victim's contacts pleas for money. 65% of victims
// see at most five messages, each with many recipients; ~6% of cases are
// customized messages to fewer than ten recipients.
func (c *Crew) sendScams(st *assessState, acct *identity.Account, work time.Duration) {
	customized := c.rng.Bool(0.06)
	var batches [][]identity.Address
	if customized {
		n := 1 + c.rng.Intn(9)
		if n > len(st.contacts) {
			n = len(st.contacts)
		}
		batches = [][]identity.Address{st.contacts[:n]}
	} else {
		msgs := 1 + c.rng.Intn(5)
		if c.rng.Bool(0.35) {
			// The heavier salvo (the other 35% of victims, §5.3): extra
			// rounds to the same contact chunks — the Mugged-in-City
			// scheme needs at least two rounds of mail anyway (§5.4).
			msgs = 6 + c.rng.Intn(6)
		}
		chunks := ChunkContacts(st.contacts, msgs)
		for len(chunks) > 0 && len(batches) < msgs {
			for _, ch := range chunks {
				if len(batches) >= msgs {
					break
				}
				batches = append(batches, ch)
			}
		}
	}
	step := work / time.Duration(len(batches)+1)
	for i, batch := range batches {
		batch := batch
		c.clock.Schedule(c.clock.Now().Add(time.Duration(i+1)*step), func() {
			msg := c.gen.Generate(c.gen.RandomScheme(), scam.Victim{
				Name: string(acct.Addr), Gender: acct.Gender, City: acct.City,
			}, customized)
			c.mail.Send(mail.SendReq{
				FromAcct: st.acct, FromAddr: acct.Addr, Recipients: batch,
				Keywords: msg.Keywords(), Class: event.ClassScam,
				Customized: customized, Session: st.sess, Actor: event.ActorHijacker,
			})
		})
	}
}

// sendPhishing blasts phishing mail from the hijacked account to its
// contacts, pointing at the crew's contact-campaign page. Like the scam
// path, blasts repeat over the contact chunks across several rounds.
func (c *Crew) sendPhishing(st *assessState, acct *identity.Account, work time.Duration, pageID event.PageID) {
	msgs := 3 + c.rng.Intn(5)
	chunks := ChunkContacts(st.contacts, msgs)
	var batches [][]identity.Address
	for len(chunks) > 0 && len(batches) < msgs {
		for _, ch := range chunks {
			if len(batches) >= msgs {
				break
			}
			batches = append(batches, ch)
		}
	}
	step := work / time.Duration(len(batches)+1)
	for i, batch := range batches {
		batch := batch
		c.clock.Schedule(c.clock.Now().Add(time.Duration(i+1)*step), func() {
			c.mail.Send(mail.SendReq{
				FromAcct: st.acct, FromAddr: acct.Addr, Recipients: batch,
				Keywords: []string{"password", "verify", "account"},
				Class:    event.ClassPhish, PageID: pageID,
				Session: st.sess, Actor: event.ActorHijacker,
			})
		})
	}
}

// launchContactCampaign phishes the victim's contacts through crew
// infrastructure — the paper's key acquisition pattern ("hijackers favor
// the use of the victim's contacts to select their next set of phishing
// victims", §5.3, 36× hijack rate among contacts). Two lure waves per
// contact; mail that appears to come from a regular contact gets more
// lenient treatment from filters and humans (so higher click and submit
// rates — Jagatic et al., cited in §4), and converts at the contacts' own
// mail-checking pace. Returns the page ID, or 0 when disabled.
func (c *Crew) launchContactCampaign(st *assessState) event.PageID {
	if !c.cfg.ContactPhishing || len(st.contacts) == 0 || st.fromTargeted {
		return 0
	}
	for _, addr := range st.contacts {
		if !c.harvestSet[addr] {
			c.harvestSet[addr] = true
			c.harvest = append(c.harvest, addr)
		}
	}
	camp := phishkit.DefaultCampaign(event.TargetMail, len(st.contacts))
	camp.Victims = st.contacts
	camp.Sink = c
	camp.ClickRate = contactClickRate
	camp.Conversion = contactConversion
	camp.ClickDelayMean = 20 * time.Hour
	return c.inf.Launch(camp)
}

// retainAndFinish applies retention tactics and closes the hijack.
func (c *Crew) retainAndFinish(st *assessState) {
	t := c.cfg.Tactics
	victim := c.dir.Get(st.acct)
	doppel := makeDoppelganger(c.rng, victim.Addr)

	if c.rng.Bool(t.ReplyToRate) {
		c.mail.SetReplyTo(st.acct, doppel, st.sess, event.ActorHijacker)
	}
	if c.rng.Bool(t.FilterRate) {
		c.mail.CreateFilter(st.acct, mail.Filter{ToTrash: true, ForwardTo: doppel}, st.sess, event.ActorHijacker)
	}

	lockedOut := c.rng.Bool(t.LockoutRate)
	if lockedOut {
		c.LockedOut++
		c.auth.ChangePassword(st.acct, fmt.Sprintf("stolen-%06d", c.rng.Intn(1_000_000)), st.sess, event.ActorHijacker)
		if c.rng.Bool(t.RecoveryChangeRate) {
			c.auth.ChangeRecovery(st.acct, "email", "", doppel, st.sess, event.ActorHijacker)
		}
		if c.rng.Bool(t.MassDeleteGivenLockout) {
			c.mail.MassDelete(st.acct, st.sess, event.ActorHijacker)
		}
		if c.rng.Bool(t.TwoSVLockoutRate) && len(c.phones) > 0 {
			phone := randx.Pick(c.rng, c.phones)
			c.auth.Enroll2SV(st.acct, phone, st.sess, event.ActorHijacker)
			c.PhoneLocks++
		}
	}
	c.finish(st, lockedOut)
}

// finish logs the end of the hijack and informs the listener.
func (c *Crew) finish(st *assessState, lockedOut bool) {
	exploited := c.exploitMark[st.acct]
	delete(c.exploitMark, st.acct)
	c.log.Append(event.HijackEnded{
		Base: event.Base{Time: c.clock.Now()}, Account: st.acct,
		Crew: c.cfg.Name, LockedOut: lockedOut, Archetype: c.cfg.Archetype,
	})
	if c.listener != nil {
		c.listener.HijackEnded(c.cfg.Name, st.acct, st.start, lockedOut, exploited)
	}
}

// searchTerm draws a Table 3 search term, skewed by crew language.
func (c *Crew) searchTerm() string {
	return c.terms.Choose(c.rng)
}

// ChunkContacts splits contacts into up to n batches, keeping every batch
// at a "high number of recipients" (at least minBatchRecipients when the
// contact list allows it — §5.3: uncustomized messages go to many
// recipients, and only ~6% of cases involve sub-ten-recipient mail).
// n <= 0 (including config-derived chunk counts from the playbook
// archetypes, which call this with arbitrary settings) is clamped to a
// single batch rather than left to the caller.
func ChunkContacts(contacts []identity.Address, n int) [][]identity.Address {
	const minBatchRecipients = 12
	if len(contacts) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if maxBatches := len(contacts) / minBatchRecipients; n > maxBatches {
		n = maxBatches
	}
	if n < 1 {
		n = 1
	}
	size := (len(contacts) + n - 1) / n
	var out [][]identity.Address
	for i := 0; i < len(contacts); i += size {
		j := i + size
		if j > len(contacts) {
			j = len(contacts)
		}
		out = append(out, contacts[i:j])
	}
	// Merge a small trailing remainder into the previous batch.
	if k := len(out); k > 1 && len(out[k-1]) < minBatchRecipients {
		merged := append(append([]identity.Address{}, out[k-2]...), out[k-1]...)
		out = append(out[:k-2], merged)
	}
	return out
}

func dayOf(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
}
