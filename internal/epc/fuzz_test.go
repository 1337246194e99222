package epc

import (
	"strconv"
	"strings"
	"testing"
)

// refParse is Parse as it was when it split every code: the reference the
// in-place walks of Match and the extractors must agree with.
func refParse(s string) ([]string, bool) {
	s = strings.TrimPrefix(s, "urn:epc:id:sgtin:")
	s = strings.TrimPrefix(s, "urn:epc:id:")
	if s == "" {
		return nil, false
	}
	segs := strings.Split(s, ".")
	if len(segs) < 2 {
		return nil, false
	}
	for _, seg := range segs {
		if seg == "" {
			return nil, false
		}
	}
	return segs, true
}

// refMatch is the segment loop over refParse's split.
func refMatch(p *Pattern, code string) bool {
	segs, ok := refParse(code)
	if !ok || len(segs) != len(p.segs) {
		return false
	}
	for i, m := range p.segs {
		switch m.kind {
		case segLiteral:
			if segs[i] != m.literal {
				return false
			}
		case segRange:
			n, err := strconv.ParseInt(segs[i], 10, 64)
			if err != nil || n < m.lo || n > m.hi {
				return false
			}
		}
	}
	return true
}

// FuzzEPC checks Pattern.Match and the three extractors against the
// split-based reference, on the value and on whether an error is returned.
func FuzzEPC(f *testing.F) {
	for _, seed := range [][2]string{
		{"20.*.[5000-9999]", "20.1.5000"},
		{"20.*.[5000-9999]", "20.1.9999"},
		{"20.*.[5000-9999]", "20.1.4999"},
		{"20.*.[5000-9999]", "20.1.10000"},
		{"20.*.[5000-9999]", "urn:epc:id:sgtin:20.1.7000"},
		{"20.*.[5000-9999]", "urn:epc:id:20.1.7000"},
		{"20.*.[5000-9999]", "urn:epc:id:urn:epc:id:sgtin:20.1.7000"},
		{"20.*.[5000-9999]", "20.1.+7000"},
		{"20.*.[5000-9999]", "20.1.-7000"},
		{"*.[-5-5]", "1.-5"},
		{"*.[-5-5]", "1.+5"},
		{"*.[0-9223372036854775807]", "1.9223372036854775807"},
		{"*.[0-9223372036854775807]", "1.9223372036854775808"},
		{"*.[-9223372036854775808-0]", "1.-9223372036854775808"},
		{"*.[1-2]", "1.+"},
		{"*.[1-2]", "1.-"},
		{"*.[1-2]", "1.1_0"},
		{"20.*", ".20.1"},
		{"20.*", "20.1."},
		{"20.*", "20..1"},
		{"20.*", "20"},
		{"*", "20"},
		{"*.*", ""},
		{"*.*", "."},
		{"é.*", "é.ü"},
		{"20.*.*", "20.\xff.1"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, pattern, code string) {
		if p, err := CompilePattern(pattern); err == nil {
			if got, want := p.Match(code), refMatch(p, code); got != want {
				t.Fatalf("Match(%q, %q) = %v, reference %v", pattern, code, got, want)
			}
		}
		segs, ok := refParse(code)
		serial, serr := ExtractSerial(code)
		company, cerr := ExtractCompany(code)
		product, perr := ExtractProduct(code)
		if !ok {
			if serr == nil || cerr == nil || perr == nil {
				t.Fatalf("%q: malformed code extracted without error: %v %v %v", code, serr, cerr, perr)
			}
			return
		}
		if cerr != nil || company != segs[0] {
			t.Fatalf("ExtractCompany(%q) = %q, %v; reference %q", code, company, cerr, segs[0])
		}
		if perr != nil || product != segs[1] {
			t.Fatalf("ExtractProduct(%q) = %q, %v; reference %q", code, product, perr, segs[1])
		}
		n, err := strconv.ParseInt(segs[len(segs)-1], 10, 64)
		if (serr == nil) != (err == nil) || (err == nil && serial != n) {
			t.Fatalf("ExtractSerial(%q) = %d, %v; reference %d, %v", code, serial, serr, n, err)
		}
	})
}
