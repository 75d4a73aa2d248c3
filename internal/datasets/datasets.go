// Package datasets holds what Table 1's fourteen datasets share across the
// analyses that draw them from the system logs: each dataset's
// deterministic sampling stream (SampleN), the Dataset 4 record and the
// Dataset 5 extractor. Each dataset's source filter and join — including
// the manual curation the authors describe ("both computers and humans
// alike are imprecise at distinguishing phishing ... from scams and other
// bulk spam") — lives in the internal/analysis builder that consumes it.
//
// Sampling is deterministic per dataset id so a given world always yields
// the same samples.
package datasets

import (
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/identity"
	"manualhijack/internal/logstore"
	"manualhijack/internal/randx"
)

// sampleSeed derives the deterministic sampling stream for a dataset.
func sampleSeed(id int) *randx.Rand {
	return randx.New(0xD5).Fork("dataset").Fork(string(rune('0' + id)))
}

// SampleN draws up to n elements without replacement using dataset id's
// deterministic sampling stream. Every analysis path that builds a
// dataset's population draws its sample here, so the batch, segmented and
// streaming reports draw the same sample in the same order. items is never
// mutated, but when len(items) <= n it is returned as-is: treat the result
// as read-only.
func SampleN[T any](id int, items []T, n int) []T {
	if len(items) <= n {
		return items
	}
	return randx.Sample(sampleSeed(id), items, n)
}

// DecoyAccess pairs a decoy credential submission with the hijacker's
// first access (Dataset 4).
type DecoyAccess struct {
	Account     identity.AccountID
	SubmittedAt time.Time
	AccessedAt  time.Time
	Accessed    bool
}

// D5HijackerLogins returns the hijacker login attempts (Dataset 5's
// population; the paper sampled 300 IPs/day — the analysis aggregates per
// IP-day itself).
func D5HijackerLogins(s *logstore.Store) []event.Login {
	return logstore.SelectWhere(s, func(l event.Login) bool {
		return l.Actor == event.ActorHijacker
	})
}
