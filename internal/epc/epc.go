// Package epc implements the Electronic Product Code support that the
// paper's EPC-pattern queries rely on: dotted tag codes of the form
// "company.product.serial", the ALE-style pattern language with literals,
// '*' wildcards and "[lo-hi]" serial ranges (e.g. "20.*.[5000-9999]"), and
// the extract_serial / extract_company / extract_product helpers exposed to
// ESL-EV as UDFs.
package epc

import (
	"fmt"
	"strconv"
	"strings"
)

// dotted trims the URI prefix from a code and checks that the dotted rest
// has at least two segments, none empty, without splitting it, so the
// extractors read segments in place and allocate nothing for a well-formed
// code.
func dotted(s string) (string, error) {
	s = trimURI(s)
	if s == "" {
		return "", fmt.Errorf("epc: empty code")
	}
	if strings.IndexByte(s, '.') < 0 {
		return "", fmt.Errorf("epc: code %q needs at least 2 dotted segments", s)
	}
	rest := s
	for i := 0; ; i++ {
		seg, tail, more := strings.Cut(rest, ".")
		if seg == "" {
			return "", fmt.Errorf("epc: code %q has empty segment %d", s, i)
		}
		if !more {
			return s, nil
		}
		rest = tail
	}
}

// trimURI drops the EPC identity URI prefix a code may carry.
func trimURI(s string) string {
	s = strings.TrimPrefix(s, "urn:epc:id:sgtin:")
	return strings.TrimPrefix(s, "urn:epc:id:")
}

// Format builds the canonical three-field code used throughout the paper.
func Format(company, product, serial int64) string {
	return fmt.Sprintf("%d.%d.%d", company, product, serial)
}

// ExtractSerial is the paper's extract_serial UDF: pull the serial-number
// segment of a dotted EPC string and return it as an integer. It returns an
// error for malformed codes or non-numeric serials, which the query layer
// surfaces as NULL.
func ExtractSerial(code string) (int64, error) {
	s, err := dotted(code)
	if err != nil {
		return 0, err
	}
	serial := s[strings.LastIndexByte(s, '.')+1:]
	n, err := strconv.ParseInt(serial, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("epc: serial %q of code %q is not numeric", serial, code)
	}
	return n, nil
}

// ExtractCompany returns the company segment of a dotted EPC string.
func ExtractCompany(code string) (string, error) {
	s, err := dotted(code)
	if err != nil {
		return "", err
	}
	company, _, _ := strings.Cut(s, ".")
	return company, nil
}

// ExtractProduct returns the product segment of a dotted EPC string.
func ExtractProduct(code string) (string, error) {
	s, err := dotted(code)
	if err != nil {
		return "", err
	}
	_, rest, _ := strings.Cut(s, ".")
	product, _, _ := strings.Cut(rest, ".")
	return product, nil
}

// segMatcher matches one dotted segment of a pattern.
type segMatcher struct {
	kind    segKind
	literal string
	lo, hi  int64
}

type segKind uint8

const (
	segLiteral segKind = iota
	segStar            // '*' — any single segment
	segRange           // '[lo-hi]' — numeric inclusive range
)

// Pattern is a compiled ALE-style EPC pattern such as "20.*.[5000-9999]":
// per-segment matchers over the dotted form. A code matches when it has the
// same number of segments and every segment matches.
type Pattern struct {
	src  string
	segs []segMatcher
}

// CompilePattern parses and compiles a pattern. Supported segment forms:
// a literal ("20"), the wildcard "*", and an inclusive numeric range
// "[5000-9999]".
func CompilePattern(pat string) (*Pattern, error) {
	if pat == "" {
		return nil, fmt.Errorf("epc: empty pattern")
	}
	parts := strings.Split(pat, ".")
	p := &Pattern{src: pat, segs: make([]segMatcher, 0, len(parts))}
	for i, part := range parts {
		switch {
		case part == "*":
			p.segs = append(p.segs, segMatcher{kind: segStar})
		case strings.HasPrefix(part, "[") && strings.HasSuffix(part, "]"):
			body := part[1 : len(part)-1]
			dash := strings.Index(body, "-")
			if dash <= 0 || dash == len(body)-1 {
				return nil, fmt.Errorf("epc: pattern %q segment %d: range %q must be [lo-hi]", pat, i, part)
			}
			lo, err1 := strconv.ParseInt(body[:dash], 10, 64)
			hi, err2 := strconv.ParseInt(body[dash+1:], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("epc: pattern %q segment %d: non-numeric range bounds in %q", pat, i, part)
			}
			if lo > hi {
				return nil, fmt.Errorf("epc: pattern %q segment %d: empty range %q", pat, i, part)
			}
			p.segs = append(p.segs, segMatcher{kind: segRange, lo: lo, hi: hi})
		case strings.HasPrefix(part, "[") || strings.HasSuffix(part, "]"):
			return nil, fmt.Errorf("epc: pattern %q segment %d: unbalanced range brackets in %q", pat, i, part)
		case part == "":
			return nil, fmt.Errorf("epc: pattern %q has empty segment %d", pat, i)
		default:
			p.segs = append(p.segs, segMatcher{kind: segLiteral, literal: part})
		}
	}
	return p, nil
}

// String returns the pattern source text.
func (p *Pattern) String() string { return p.src }

// Match reports whether the dotted code string matches the pattern.
// Malformed codes simply do not match. It walks the code in place, so a
// call allocates nothing.
func (p *Pattern) Match(code string) bool {
	s := trimURI(code)
	if len(p.segs) < 2 {
		return false // a code has at least two segments
	}
	last := len(p.segs) - 1
	for i, m := range p.segs {
		seg, rest, more := strings.Cut(s, ".")
		if seg == "" || more != (i < last) {
			return false
		}
		s = rest
		switch m.kind {
		case segStar:
			// any segment
		case segLiteral:
			if seg != m.literal {
				return false
			}
		case segRange:
			n, ok := parseDecimal(seg)
			if !ok || n < m.lo || n > m.hi {
				return false
			}
		}
	}
	return true
}

// parseDecimal is strconv.ParseInt(s, 10, 64) with the syntax checked
// first, so a non-numeric segment is refused without the error value
// ParseInt allocates.
func parseDecimal(s string) (int64, bool) {
	digits := s
	if digits != "" && (digits[0] == '+' || digits[0] == '-') {
		digits = digits[1:]
	}
	if digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.ParseInt(s, 10, 64) // fails only on overflow now
	return n, err == nil
}
