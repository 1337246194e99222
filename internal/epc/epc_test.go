package epc

import (
	"strconv"
	"testing"
	"testing/quick"
)

// parts reads a code through the three extractors, the package's only
// code readers.
func parts(code string) (company, product string, serial int64, err error) {
	if company, err = ExtractCompany(code); err != nil {
		return
	}
	if product, err = ExtractProduct(code); err != nil {
		return
	}
	serial, err = ExtractSerial(code)
	return
}

func TestParse(t *testing.T) {
	for _, code := range []string{"20.1234.5678", "urn:epc:id:sgtin:20.1234.5678"} {
		co, prod, n, err := parts(code)
		if err != nil || co != "20" || prod != "1234" || n != 5678 {
			t.Errorf("%q parsed as %q, %q, %d, %v", code, co, prod, n, err)
		}
	}
}

func TestParseURIPrefix(t *testing.T) {
	if co, err := ExtractCompany("urn:epc:id:sgtin:20.7.9"); err != nil || co != "20" {
		t.Fatalf("URI parse: %q, %v", co, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "solo", "a..b", ".a.b", "a.b."} {
		if _, err := ExtractCompany(bad); err == nil {
			t.Errorf("ExtractCompany(%q) should fail", bad)
		}
		if _, err := ExtractProduct(bad); err == nil {
			t.Errorf("ExtractProduct(%q) should fail", bad)
		}
		if _, err := ExtractSerial(bad); err == nil {
			t.Errorf("ExtractSerial(%q) should fail", bad)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	f := func(company, product, serial uint16) bool {
		co, prod, n, err := parts(Format(int64(company), int64(product), int64(serial)))
		return err == nil && co == strconv.Itoa(int(company)) &&
			prod == strconv.Itoa(int(product)) && n == int64(serial)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtractSerial(t *testing.T) {
	if n, err := ExtractSerial("20.1234.5678"); err != nil || n != 5678 {
		t.Errorf("ExtractSerial = %d, %v", n, err)
	}
	if _, err := ExtractSerial("20.1234.abc"); err == nil {
		t.Error("non-numeric serial should error")
	}
	if _, err := ExtractSerial("garbage"); err == nil {
		t.Error("malformed code should error")
	}
	if co, err := ExtractCompany("20.1.2"); err != nil || co != "20" {
		t.Errorf("ExtractCompany = %q, %v", co, err)
	}
	if pr, err := ExtractProduct("20.1.2"); err != nil || pr != "1" {
		t.Errorf("ExtractProduct = %q, %v", pr, err)
	}
	if _, err := ExtractCompany(""); err == nil {
		t.Error("ExtractCompany on empty should error")
	}
	if _, err := ExtractProduct(""); err == nil {
		t.Error("ExtractProduct on empty should error")
	}
}

// The ALE-standard example pattern from the paper's introduction.
func TestPaperPattern(t *testing.T) {
	p, err := CompilePattern("20.*.[5000-9999]")
	if err != nil {
		t.Fatal(err)
	}
	match := []string{"20.1.5000", "20.9999.9999", "20.777.7500"}
	noMatch := []string{
		"21.1.5000",     // wrong company
		"20.1.4999",     // below range
		"20.1.10000",    // above range
		"20.1.abc",      // non-numeric serial
		"20.5000",       // wrong arity
		"20.1.5000.1",   // wrong arity
		"not-a-code",    // malformed
		"urn:epc:id:xy", // malformed
	}
	for _, s := range match {
		if !p.Match(s) {
			t.Errorf("%q should match %s", s, p)
		}
	}
	for _, s := range noMatch {
		if p.Match(s) {
			t.Errorf("%q should NOT match %s", s, p)
		}
	}
}

func TestPatternLiteralAndStar(t *testing.T) {
	p, err := CompilePattern("20.55.*")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Match("20.55.1") || !p.Match("20.55.xyz") {
		t.Error("star segment should match anything")
	}
	if p.Match("20.56.1") {
		t.Error("literal mismatch")
	}
}

func TestPatternRangeBoundaries(t *testing.T) {
	p, err := CompilePattern("*.[10-20].*")
	if err != nil {
		t.Fatal(err)
	}
	for serial, want := range map[string]bool{
		"1.10.x": true, "1.20.x": true, "1.15.x": true,
		"1.9.x": false, "1.21.x": false,
	} {
		if p.Match(serial) != want {
			t.Errorf("Match(%q) = %v, want %v", serial, !want, want)
		}
	}
}

func TestCompilePatternErrors(t *testing.T) {
	for _, bad := range []string{
		"", "a..b", "[5-]", "[-5]", "[abc-5].x", "[9-5]", "[5000-9999", "a.[x-y]",
	} {
		if _, err := CompilePattern(bad); err == nil {
			t.Errorf("CompilePattern(%q) should fail", bad)
		}
	}
}

// Property: every generated code in range matches; shifting company breaks
// the match.
func TestPatternProperty(t *testing.T) {
	p, err := CompilePattern("20.*.[5000-9999]")
	if err != nil {
		t.Fatal(err)
	}
	f := func(product uint16, serialOff uint16) bool {
		serial := 5000 + int64(serialOff)%5000
		good := Format(20, int64(product), serial)
		bad := Format(21, int64(product), serial)
		return p.Match(good) && !p.Match(bad)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
