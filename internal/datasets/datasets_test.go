package datasets

import (
	"testing"
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/logstore"
)

var t0 = time.Date(2012, 11, 1, 0, 0, 0, 0, time.UTC)

func at(min int) event.Base { return event.Base{Time: t0.Add(time.Duration(min) * time.Minute)} }

func TestD1Sampling(t *testing.T) {
	var lures []event.LureSent
	for i := 0; i < 500; i++ {
		lures = append(lures, event.LureSent{Base: at(i), Reported: true})
	}
	a := SampleN(1, lures, 100)
	b := SampleN(1, lures, 100)
	if len(a) != 100 {
		t.Fatalf("sample = %d", len(a))
	}
	for i := range a {
		if a[i].When() != b[i].When() {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestD5FilterByActor(t *testing.T) {
	s := logstore.New()
	s.Append(event.Login{Base: at(0), Account: 1, Actor: event.ActorHijacker})
	s.Append(event.Login{Base: at(1), Account: 2, Actor: event.ActorOwner})

	if got := D5HijackerLogins(s); len(got) != 1 || got[0].Account != 1 {
		t.Fatalf("D5 = %+v", got)
	}
}
