package window

import (
	"slices"

	"repro/internal/snapshot"
	"repro/internal/stream"
)

// Save writes the retained elements oldest-first, each with save (the
// evicted prefix is dead state).
func (s *Store[E]) Save(enc *snapshot.Encoder, save func(*snapshot.Encoder, E)) {
	live := s.items[s.start:]
	enc.Uvarint(uint64(len(live)))
	for _, e := range live {
		save(enc, e)
	}
}

// Load replaces the contents with elements decoded by load. Times that
// decrease are corrupt: they would break the binary search behind
// EvictBefore and EachInRange.
func (s *Store[E]) Load(dec *snapshot.Decoder, load func(*snapshot.Decoder) (E, error)) error {
	n, err := dec.Len()
	if err != nil {
		return err
	}
	clear(s.items)
	s.items, s.start = slices.Grow(s.items[:0], n), 0
	for i := 0; i < n; i++ {
		e, err := load(dec)
		if err != nil {
			return err
		}
		if err := s.Add(e); err != nil {
			return snapshot.Corruptf("%v", err)
		}
	}
	return nil
}

// LoadTuple decodes one tuple element for Load; a nil tuple is
// corrupt. (*snapshot.Encoder).Tuple is its Save counterpart.
func LoadTuple(dec *snapshot.Decoder) (*stream.Tuple, error) {
	t, err := dec.Tuple()
	if err == nil && t == nil {
		err = snapshot.Corruptf("nil tuple in time buffer")
	}
	return t, err
}
