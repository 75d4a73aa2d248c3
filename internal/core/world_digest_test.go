package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"manualhijack/internal/logstore"
)

// smokeWorldDigest is the sha256 of the CI smoke world's NDJSON dump
// (seed 7, 2000 accounts, 10 days, 40 decoys, every playbook archetype
// once). It pins the simulator's behaviour: a layout or performance change
// to any simulation layer must leave the log byte-identical, and one that
// alters behaviour fails here. A deliberate behaviour change updates the
// constant and says why.
const smokeWorldDigest = "333c76aa28558b8ca3d65c192d5af5195d81d92abff3fcf36805d394a9f6388d"

func TestSmokeWorldDigestPinned(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.PopulationN = 2000
	cfg.Days = 10
	cfg.DecoyN = 40
	for _, name := range []string{
		"datathief", "hopper", "impaas", "lateralphisher", "lowslow",
		"ransomer", "sleeper", "smashgrab", "spamcannon", "stuffer",
	} {
		cfg.Archetypes = append(cfg.Archetypes, ArchetypeSpec{Archetype: name, Count: 1})
	}
	w := NewWorld(cfg)
	w.InjectDecoys(time.Duration(cfg.Days) * 16 * time.Hour)
	w.Run()

	h := sha256.New()
	if err := logstore.WriteNDJSON(h, w.Log); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != smokeWorldDigest {
		t.Fatalf("smoke world log digest = %s, want %s (%d records): the simulation's behaviour changed",
			got, smokeWorldDigest, w.Log.Len())
	}
}
