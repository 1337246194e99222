// Package stream provides the core data-stream runtime for ESL-EV: typed
// values, tuple schemas, event-time timestamps, heartbeats (punctuations),
// and a timestamp-ordered merger that combines multiple concurrent sources
// into one deterministic event-time sequence.
//
// All higher layers (windows, the temporal-event core, the ESL-EV language
// engine) are built on the types in this package. Tuples are append-only
// relational records carrying an event timestamp, matching the paper's model
// of RFID readings as "continuously-generated relational data streams".
package stream

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind identifies the dynamic type stored in a Value.
type Kind uint8

// The supported value kinds. KindNull is the zero value, so a zero Value is
// SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	case KindTime:
		return "TIME"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union holding one SQL value. It is an immutable
// value type: copy freely, compare with Equal/Compare. Using a struct rather
// than interface{} keeps tuples allocation-free on the hot path.
type Value struct {
	kind Kind
	i    int64 // int payload; bool as 0/1; time as Timestamp (ns)
	f    float64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Time returns a timestamp value.
func Time(ts Timestamp) Value { return Value{kind: KindTime, i: int64(ts)} }

// Kind reports the dynamic kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It converts floats by truncation and
// bools to 0/1. ok is false for other kinds.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	case KindTime:
		return v.i, true
	default:
		return 0, false
	}
}

// AsFloat returns the numeric payload widened to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	case KindTime:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsString returns the string payload. ok is false for non-strings; use
// String for a display rendering of any value.
func (v Value) AsString() (string, bool) {
	if v.kind == KindString {
		return v.s, true
	}
	return "", false
}

// AsBool returns the boolean payload. Ints and floats are truthy when
// non-zero, matching SQL-ish predicate coercion.
func (v Value) AsBool() (bool, bool) {
	switch v.kind {
	case KindBool, KindInt:
		return v.i != 0, true
	case KindFloat:
		return v.f != 0, true
	default:
		return false, false
	}
}

// AsTime returns the timestamp payload. ok is false for non-time kinds,
// except integers, which are interpreted as raw Timestamp nanoseconds.
func (v Value) AsTime() (Timestamp, bool) {
	switch v.kind {
	case KindTime, KindInt:
		return Timestamp(v.i), true
	default:
		return 0, false
	}
}

// String renders the value for display and for the CSV/JSONL tool output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindTime:
		return Timestamp(v.i).String()
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.kind))
	}
}

// Equal reports deep equality. NULL equals NULL here (Go-level identity);
// SQL three-valued logic is applied by the expression evaluator, not by
// Value itself. Numeric kinds compare across int/float.
func (v Value) Equal(o Value) bool {
	c, ok := v.Compare(o)
	return ok && c == 0
}

// Compare orders two values: -1, 0, +1. ok is false when the kinds are not
// comparable (e.g. string vs int). NULL compares less than everything and
// equal to NULL, which gives a stable total order for sorting; predicate
// NULL semantics are layered above.
func (v Value) Compare(o Value) (int, bool) {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0, true
		case v.kind == KindNull:
			return -1, true
		default:
			return 1, true
		}
	}
	if isNumeric(v.kind) && isNumeric(o.kind) {
		if v.kind == KindFloat || o.kind == KindFloat {
			a, _ := v.AsFloat()
			b, _ := o.AsFloat()
			return cmpFloat(a, b), true
		}
		return cmpInt(v.i, o.i), true
	}
	if v.kind != o.kind {
		return 0, false
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < o.s:
			return -1, true
		case v.s > o.s:
			return 1, true
		default:
			return 0, true
		}
	case KindTime:
		return cmpInt(v.i, o.i), true
	default:
		return 0, false
	}
}

func isNumeric(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindBool
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Hash returns a 64-bit FNV-1a hash of the value, coherent with Equal:
// values that compare equal hash equally (ints and whole floats included).
// It is a bucket index, never an identity: different values may collide
// (every int above 2^53 hashes through its float64 rounding), so every
// table keyed by it compares candidates with Equal, and code that only
// places values (shard and node routing) relies on coherence alone.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	mix8 := func(x uint64) {
		for s := 0; s < 64; s += 8 {
			mix(byte(x >> s))
		}
	}
	// Numeric values (int, float, bool) hash through one canonical form so
	// hashing is coherent with the cross-kind Equal: the float64 rendering,
	// folded back to an int64 when exactly representable. Nearby huge ints
	// may collide (allowed); equal values never hash apart.
	hashNumeric := func(f float64) {
		if j, ok := exactInt(f); ok {
			mix(1)
			mix8(uint64(j))
		} else {
			mix(2)
			mix8(math.Float64bits(f))
		}
	}
	switch v.kind {
	case KindNull:
		mix(0)
	case KindInt, KindBool:
		hashNumeric(float64(v.i))
	case KindFloat:
		hashNumeric(v.f)
	case KindTime:
		mix(4)
		mix8(uint64(v.i))
	case KindString:
		mix(3)
		for i := 0; i < len(v.s); i++ {
			mix(v.s[i])
		}
	}
	return h
}

// exactInt folds a float into an int64 when it is integral and exactly in
// the int64 range (strictly below 2^63, since float64(MaxInt64) rounds up).
func exactInt(f float64) (int64, bool) {
	const lim = 9.223372036854775808e18 // 2^63
	if f != math.Trunc(f) || math.IsInf(f, 0) || f < -lim || f >= lim {
		return 0, false
	}
	return int64(f), true
}

// ParseValue converts external text (CSV fields, CLI literals) into a Value,
// preferring int, then float, then bool; anything else is a string. Empty
// text is NULL.
func ParseValue(s string) Value {
	if s == "" {
		return Null
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	if s == "true" || s == "false" {
		return Bool(s == "true")
	}
	// Identifier-shaped text (reader IDs, tag EPCs) repeats heavily across a
	// trace; interning shares one backing copy per distinct string.
	return Str(Intern(s))
}

// Timestamp is an event-time instant in nanoseconds since an arbitrary
// simulation epoch. ESL-EV is an event-time system: all window arithmetic
// and sequence ordering use tuple timestamps, never the wall clock, which
// makes runs deterministic and replayable.
type Timestamp int64

// MinTimestamp and MaxTimestamp bound the representable event-time range.
const (
	MinTimestamp Timestamp = math.MinInt64
	MaxTimestamp Timestamp = math.MaxInt64
)

// TS builds a Timestamp from a duration offset since the simulation epoch,
// e.g. TS(5 * time.Second).
func TS(d time.Duration) Timestamp { return Timestamp(d.Nanoseconds()) }

// Add offsets the timestamp by a duration, saturating at the range bounds.
func (t Timestamp) Add(d time.Duration) Timestamp {
	r := t + Timestamp(d)
	if d > 0 && r < t {
		return MaxTimestamp
	}
	if d < 0 && r > t {
		return MinTimestamp
	}
	return r
}

// Sub returns the duration elapsed from o to t.
func (t Timestamp) Sub(o Timestamp) time.Duration { return time.Duration(t - o) }

// Before and After order timestamps.
func (t Timestamp) Before(o Timestamp) bool { return t < o }

// After reports whether t is strictly later than o.
func (t Timestamp) After(o Timestamp) bool { return t > o }

// String renders the timestamp as a duration offset from the epoch, which is
// the natural display for simulated RFID time ("5s", "1h2m").
func (t Timestamp) String() string { return time.Duration(t).String() }
