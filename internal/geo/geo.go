// Package geo provides the geographic substrate of the study: a synthetic
// IPv4 address plan partitioned by country, IP→country geolocation, and
// E.164 phone numbers with country-code parsing.
//
// The paper attributes hijacking activity via (a) geolocation of the IPs
// that accessed hijacked accounts (Figure 11) and (b) the country codes of
// phones hijackers enrolled for 2-step verification (Figure 12). Both are
// pure lookups, so a deterministic synthetic plan preserves the analyses
// exactly.
package geo

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"manualhijack/internal/randx"
)

// Country identifies a country by its ISO 3166-1 alpha-2 code.
type Country string

// Countries that appear in the paper's attribution section plus a set of
// "rest of world" sources for organic traffic.
const (
	China       Country = "CN"
	IvoryCoast  Country = "CI"
	Malaysia    Country = "MY"
	Nigeria     Country = "NG"
	SouthAfrica Country = "ZA"
	Venezuela   Country = "VE"
	France      Country = "FR"
	India       Country = "IN"
	Mali        Country = "ML"
	Vietnam     Country = "VN"
	Afghanistan Country = "AF"
	US          Country = "US"
	Brazil      Country = "BR"
	UK          Country = "GB"
	Germany     Country = "DE"
	Spain       Country = "ES"
	Canada      Country = "CA"
	Australia   Country = "AU"
	Japan       Country = "JP"
	Mexico      Country = "MX"
	Unknown     Country = "??"
)

// phoneCodes maps countries to E.164 calling codes.
var phoneCodes = map[Country]string{
	China: "86", IvoryCoast: "225", Malaysia: "60", Nigeria: "234",
	SouthAfrica: "27", Venezuela: "58", France: "33", India: "91",
	Mali: "223", Vietnam: "84", Afghanistan: "93", US: "1", Brazil: "55",
	UK: "44", Germany: "49", Spain: "34", Canada: "1", Australia: "61",
	Japan: "81", Mexico: "52",
}

// allCountries is the registry's countries, sorted once at start-up.
var allCountries = func() []Country {
	out := make([]Country, 0, len(phoneCodes))
	for c := range phoneCodes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}()

// AllCountries lists every country in the registry in a stable (sorted)
// order. The slice is shared: callers must not modify it.
func AllCountries() []Country { return allCountries }

// PhoneCode returns the E.164 calling code for a country, or "" if unknown.
func PhoneCode(c Country) string { return phoneCodes[c] }

// IPPlan is a synthetic IPv4 address plan: each registered country owns a
// set of /16 blocks inside 10.0.0.0/8 equivalents spread over the full
// space. Lookups are O(1).
type IPPlan struct {
	// blockOwner maps the top 16 bits of an address to its country.
	blockOwner map[uint16]Country
	// blocks lists each country's owned high-16 prefixes for generation.
	blocks map[Country][]uint16
}

// NewIPPlan builds a plan giving each registered country blocksPer /16
// blocks, deterministically derived from the registry order (no RNG: the
// plan is part of the world's fixed geography).
func NewIPPlan(blocksPer int) *IPPlan {
	if blocksPer < 1 {
		blocksPer = 1
	}
	p := &IPPlan{
		blockOwner: make(map[uint16]Country),
		blocks:     make(map[Country][]uint16),
	}
	countries := AllCountries()
	// Interleave countries across the high-16 space, starting at 0x0100 to
	// avoid 0.x addresses.
	next := uint16(0x0100)
	for b := 0; b < blocksPer; b++ {
		for _, c := range countries {
			p.blockOwner[next] = c
			p.blocks[c] = append(p.blocks[c], next)
			next += 0x0101 // stride so blocks are visibly scattered
		}
	}
	return p
}

// Addr generates a deterministic-by-stream address inside one of country's
// blocks.
func (p *IPPlan) Addr(r *randx.Rand, c Country) netip.Addr {
	blocks := p.blocks[c]
	if len(blocks) == 0 {
		// Unregistered country: return an address no block owns.
		return netip.AddrFrom4([4]byte{0, 0, byte(r.Intn(256)), byte(r.Intn(256))})
	}
	hi := randx.Pick(r, blocks)
	lo := uint16(r.Intn(1 << 16))
	return netip.AddrFrom4([4]byte{byte(hi >> 8), byte(hi), byte(lo >> 8), byte(lo)})
}

// Locate returns the country owning addr, or Unknown.
func (p *IPPlan) Locate(addr netip.Addr) Country {
	if !addr.Is4() {
		return Unknown
	}
	b := addr.As4()
	hi := uint16(b[0])<<8 | uint16(b[1])
	if c, ok := p.blockOwner[hi]; ok {
		return c
	}
	return Unknown
}

// Phone is an E.164 phone number string, e.g. "+2348012345678".
type Phone string

// NewPhone generates a random subscriber number in country c.
func NewPhone(r *randx.Rand, c Country) Phone {
	code, ok := phoneCodes[c]
	if !ok {
		code = "999"
	}
	return Phone(fmt.Sprintf("+%s%09d", code, r.Intn(1_000_000_000)))
}

// PhoneCountry parses the country of a phone number by longest-prefix
// match on its calling code. Returns Unknown for unparseable numbers.
// "+1" is shared by US and Canada; the deterministic tie-break attributes
// it to the alphabetically first country (CA), which is irrelevant to the
// paper's phone dataset (no North American numbers appear in Figure 12).
func PhoneCountry(p Phone) Country {
	s := string(p)
	if !strings.HasPrefix(s, "+") || len(s) < 4 {
		return Unknown
	}
	s = s[1:]
	best := Unknown
	bestLen := 0
	for _, c := range AllCountries() {
		code := phoneCodes[c]
		if strings.HasPrefix(s, code) && len(code) > bestLen {
			best, bestLen = c, len(code)
		}
	}
	return best
}

// Distance returns a coarse "are these far apart" metric between two
// countries used by the login risk analyzer's geo-velocity signal: 0 for
// the same country, 1 otherwise. The study only needs country granularity.
func Distance(a, b Country) float64 {
	if a == b {
		return 0
	}
	return 1
}
