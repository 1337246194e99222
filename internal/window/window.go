// Package window holds the time-ordered state of ESL-EV's windowed
// operators: Store, one slice-backed buffer kept in event-time order that
// evicts below a horizon and scans a time range. Active Expiration — windows
// whose expiry must be detected even when no new tuple arrives (§3.1.3 of
// the paper) — lives in core.Matcher's one deadline queue, not here.
package window

import (
	"errors"
	"fmt"

	"repro/internal/stream"
)

// ErrOutOfOrder reports an attempt to add an element behind the store's
// newest retained timestamp. The engine feeds stores in joint-history
// order, so callers surface this as an internal consistency error rather
// than a data error; it is a returned error (not a panic) so one corrupted
// query can be quarantined without taking the process down.
var ErrOutOfOrder = errors.New("window: out-of-order add")

// Timed is an element a Store keeps in event-time order.
type Timed interface{ Time() stream.Timestamp }

// Store retains elements ordered by event time: the history of a stream or
// of a SEQ step, a windowed EXISTS buffer, a windowed aggregate's rows.
// Elements must be added in non-decreasing Time order, which the engine
// guarantees. Eviction and range scans binary-search the cut, and storage
// compacts once the evicted prefix dominates, so eviction is amortized
// O(1) per element.
type Store[E Timed] struct {
	items []E
	start int
}

// TimeBuffer is the store of tuples.
type TimeBuffer = Store[*stream.Tuple]

// Add appends e. It returns ErrOutOfOrder if order is violated, which
// indicates an engine bug upstream, not a data error.
func (s *Store[E]) Add(e E) error {
	if n := len(s.items); n > s.start {
		if last := s.items[n-1].Time(); e.Time() < last {
			return fmt.Errorf("%w: %s after %s", ErrOutOfOrder, e.Time(), last)
		}
	}
	s.items = append(s.items, e)
	return nil
}

// Len returns the number of retained elements.
func (s *Store[E]) Len() int { return len(s.items) - s.start }

// before returns how many retained elements lie strictly before ts.
func (s *Store[E]) before(ts stream.Timestamp) int {
	live := s.items[s.start:]
	i, j := 0, len(live)
	for i < j {
		m := (i + j) >> 1
		if live[m].Time() < ts {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// EvictBefore drops all elements strictly before ts and returns how many
// were dropped. One call costs O(log n + evicted), and O(1) when nothing
// is due, the common case when a matcher evicts on every touch.
func (s *Store[E]) EvictBefore(ts stream.Timestamp) int {
	if s.start == len(s.items) || s.items[s.start].Time() >= ts {
		return 0
	}
	n := s.before(ts)
	s.Drop(n)
	return n
}

// Drop removes the n oldest elements.
func (s *Store[E]) Drop(n int) {
	clear(s.items[s.start : s.start+n])
	s.start += n
	s.compact()
}

// compact moves the live region to the front once the dead prefix
// dominates the backing array, and rewinds an emptied store so the next
// Add reuses the array from its start instead of growing it.
func (s *Store[E]) compact() {
	if s.start == len(s.items) {
		s.items, s.start = s.items[:0], 0
		return
	}
	if s.start > 64 && s.start*2 >= len(s.items) {
		n := copy(s.items, s.items[s.start:])
		clear(s.items[n:])
		s.items, s.start = s.items[:n], 0
	}
}

// Each visits retained elements oldest-first; fn returning false stops.
func (s *Store[E]) Each(fn func(E) bool) {
	for _, e := range s.items[s.start:] {
		if !fn(e) {
			return
		}
	}
}

// EachInRange visits elements with lo <= Time <= hi oldest-first; fn
// returning false stops.
func (s *Store[E]) EachInRange(lo, hi stream.Timestamp, fn func(E) bool) {
	for _, e := range s.items[s.start+s.before(lo):] {
		if e.Time() > hi || !fn(e) {
			return
		}
	}
}

// Remove deletes the oldest element match accepts and reports whether
// there was one. It supports CHRONICLE consumption, where matched tuples
// leave the history; the consumed tuple is the earliest qualifying one,
// so Remove shifts whichever side of it is shorter.
func (s *Store[E]) Remove(match func(E) bool) bool {
	var zero E
	for i := s.start; i < len(s.items); i++ {
		if !match(s.items[i]) {
			continue
		}
		if end := len(s.items) - 1; i-s.start < end-i {
			copy(s.items[s.start+1:i+1], s.items[s.start:i])
			s.items[s.start] = zero
			s.start++
			s.compact()
		} else {
			copy(s.items[i:], s.items[i+1:])
			s.items[end] = zero
			s.items = s.items[:end]
		}
		return true
	}
	return false
}
