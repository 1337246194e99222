package stream

import (
	"fmt"
	"strings"
)

// Tuple is one append-only stream record: a row of values plus its event
// timestamp. Seq is a tie-breaking arrival sequence number assigned by the
// merger/engine so that simultaneous tuples still have a stable total order
// (the joint tuple history of §3.1.1 requires one).
type Tuple struct {
	Schema *Schema
	Vals   []Value
	TS     Timestamp
	Seq    uint64
}

// NewTuple builds a tuple, validating the row against the schema and, when
// the schema designates a time column, synchronizing TS with it: if the time
// column holds a value, TS is taken from it; otherwise it is back-filled
// from ts.
func NewTuple(s *Schema, ts Timestamp, vals ...Value) (*Tuple, error) {
	if err := s.Validate(vals); err != nil {
		return nil, err
	}
	t := &Tuple{Schema: s, Vals: vals, TS: ts}
	if c := s.TimeColumn(); c >= 0 {
		if v := vals[c]; !v.IsNull() {
			if tv, ok := v.AsTime(); ok {
				t.TS = tv
			}
		} else {
			t.Vals[c] = Time(ts)
		}
	}
	return t, nil
}

// MustTuple is NewTuple that panics on error, for tests and examples.
func MustTuple(s *Schema, ts Timestamp, vals ...Value) *Tuple {
	t, err := NewTuple(s, ts, vals...)
	if err != nil {
		panic(err)
	}
	return t
}

// Get returns the value at column i.
func (t *Tuple) Get(i int) Value {
	if i < 0 || i >= len(t.Vals) {
		return Null
	}
	return t.Vals[i]
}

// Field returns the value of the named column; Null when absent.
func (t *Tuple) Field(name string) Value {
	if i, ok := t.Schema.Col(name); ok {
		return t.Vals[i]
	}
	return Null
}

// Clone returns a deep copy sharing nothing mutable with the original.
func (t *Tuple) Clone() *Tuple {
	c := *t
	c.Vals = append([]Value(nil), t.Vals...)
	return &c
}

// BeforeInOrder reports whether t precedes o in the joint tuple history
// order: by timestamp, then by arrival sequence number.
func (t *Tuple) BeforeInOrder(o *Tuple) bool {
	if t.TS != o.TS {
		return t.TS < o.TS
	}
	return t.Seq < o.Seq
}

// String renders the tuple for logs and the CLI: name(v1, v2, ...)@ts.
func (t *Tuple) String() string {
	var b strings.Builder
	if t.Schema != nil {
		b.WriteString(t.Schema.Name())
	}
	b.WriteByte('(')
	for i, v := range t.Vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	fmt.Fprintf(&b, "@%s", t.TS)
	return b.String()
}

// Item is one element of a merged event-time sequence: either a tuple or a
// heartbeat. Heartbeats (punctuations) carry only a timestamp and promise
// that no later-arriving tuple will have an earlier event time; they drive
// window eviction and the Active Expiration semantics of EXCEPTION_SEQ.
type Item struct {
	Tuple *Tuple    // nil for a pure heartbeat
	TS    Timestamp // equals Tuple.TS when Tuple != nil
}

// Heartbeat builds a punctuation item.
func Heartbeat(ts Timestamp) Item { return Item{TS: ts} }

// Of wraps a tuple as an item.
func Of(t *Tuple) Item { return Item{Tuple: t, TS: t.TS} }

// IsHeartbeat reports whether the item carries no tuple.
func (it Item) IsHeartbeat() bool { return it.Tuple == nil }

// Time returns the tuple's event time, ordering it in a window.Store.
func (t *Tuple) Time() Timestamp { return t.TS }
