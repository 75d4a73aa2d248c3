package geo

import (
	"testing"
	"testing/quick"

	"manualhijack/internal/randx"
)

func TestIPPlanRoundTrip(t *testing.T) {
	p := NewIPPlan(4)
	r := randx.New(1)
	for _, c := range AllCountries() {
		for i := 0; i < 50; i++ {
			addr := p.Addr(r, c)
			if got := p.Locate(addr); got != c {
				t.Fatalf("Locate(Addr(%s)) = %s", c, got)
			}
		}
	}
}

func TestIPPlanUnknown(t *testing.T) {
	p := NewIPPlan(2)
	r := randx.New(2)
	addr := p.Addr(r, Country("XX"))
	if got := p.Locate(addr); got != Unknown {
		t.Fatalf("unregistered country should locate to Unknown, got %s", got)
	}
}

func TestIPPlanBlockDisjointness(t *testing.T) {
	p := NewIPPlan(8)
	seen := map[uint16]Country{}
	for c, blocks := range p.blocks {
		for _, b := range blocks {
			if prev, ok := seen[b]; ok && prev != c {
				t.Fatalf("block %04x owned by both %s and %s", b, prev, c)
			}
			seen[b] = c
		}
	}
}

func TestPhoneRoundTrip(t *testing.T) {
	r := randx.New(3)
	for _, c := range AllCountries() {
		if c == US { // +1 ties to CA by design
			continue
		}
		ph := NewPhone(r, c)
		if got := PhoneCountry(ph); got != c {
			t.Fatalf("PhoneCountry(NewPhone(%s)=%s) = %s", c, ph, got)
		}
	}
}

func TestPhoneSharedCodeDeterministic(t *testing.T) {
	r := randx.New(4)
	us := NewPhone(r, US)
	if got := PhoneCountry(us); got != Canada {
		t.Fatalf("+1 should deterministically parse to CA, got %s", got)
	}
}

func TestPhoneCountryGarbage(t *testing.T) {
	for _, p := range []Phone{"", "+", "123", "+9", "nonsense"} {
		if got := PhoneCountry(p); got != Unknown {
			t.Fatalf("PhoneCountry(%q) = %s, want Unknown", p, got)
		}
	}
}

func TestPhoneCountryLongestPrefix(t *testing.T) {
	// Mali is +223; a +22... number must not be claimed by a shorter code.
	if got := PhoneCountry("+223123456789"); got != Mali {
		t.Fatalf("+223 = %s, want ML", got)
	}
	// Ivory Coast +225.
	if got := PhoneCountry("+225987654321"); got != IvoryCoast {
		t.Fatalf("+225 = %s, want CI", got)
	}
}

func TestDistance(t *testing.T) {
	if Distance(China, China) != 0 {
		t.Fatal("same-country distance should be 0")
	}
	if Distance(China, Nigeria) != 1 {
		t.Fatal("cross-country distance should be 1")
	}
}

func TestPhoneCodeRegistry(t *testing.T) {
	if PhoneCode(Nigeria) != "234" {
		t.Fatalf("NG code = %s", PhoneCode(Nigeria))
	}
	if PhoneCode(Country("XX")) != "" {
		t.Fatal("unknown country should have empty code")
	}
}

func TestAllCountriesSortedStable(t *testing.T) {
	a, b := AllCountries(), AllCountries()
	if len(a) == 0 {
		t.Fatal("no countries registered")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("AllCountries not stable")
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatal("AllCountries not sorted")
		}
	}
}

// AllCountries sits on per-event paths (owner travel, phishing-page
// visits), so it must return the shared slice, not build one per call.
func TestAllCountriesNoAlloc(t *testing.T) {
	var sink []Country
	if n := testing.AllocsPerRun(100, func() { sink = AllCountries() }); n != 0 || len(sink) == 0 {
		t.Fatalf("AllCountries allocates %.0f times per call, want 0", n)
	}
}

// Property: every generated address for a registered country is located
// back to that country, for arbitrary RNG seeds.
func TestAddrLocateProperty(t *testing.T) {
	p := NewIPPlan(3)
	countries := AllCountries()
	f := func(seed int64, pick uint8) bool {
		c := countries[int(pick)%len(countries)]
		r := randx.New(seed)
		return p.Locate(p.Addr(r, c)) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
