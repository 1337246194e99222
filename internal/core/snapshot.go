package core

import (
	"sort"

	"repro/internal/snapshot"
	"repro/internal/stream"
	"repro/internal/window"
)

// Matcher and its per-partition engines serialize data only: the Def
// (steps, filters, predicates) is rebuilt by re-executing the same query
// against a fresh engine, and Load verifies the snapshot's shape against
// it. Copy-on-write sharing between forked runs is flattened — the
// cap-limited group slices reallocate on append either way, so a deep
// restore is behaviorally identical.

// saveMatch serializes a match's bound groups (tuples interned by the
// encoder, so sharing across runs costs one table entry).
func saveMatch(enc *snapshot.Encoder, m *Match) {
	enc.Value(m.Key)
	enc.Uvarint(uint64(len(m.Groups)))
	for _, g := range m.Groups {
		enc.Uvarint(uint64(len(g)))
		for _, t := range g {
			enc.Tuple(t)
		}
	}
}

// loadMatch reads a match saved for a pattern of nsteps steps; any other
// group count is ErrStateMismatch.
func loadMatch(dec *snapshot.Decoder, nsteps int) (*Match, error) {
	key, err := dec.Value()
	if err != nil {
		return nil, err
	}
	ng, err := dec.Len()
	if err != nil {
		return nil, err
	}
	if ng != nsteps {
		return nil, snapshot.Mismatchf("match has %d groups, pattern has %d steps", ng, nsteps)
	}
	m := &Match{Groups: make([][]*stream.Tuple, ng), Key: key}
	for i := 0; i < ng; i++ {
		n, err := dec.Len()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			continue
		}
		g := make([]*stream.Tuple, 0, n)
		for j := 0; j < n; j++ {
			t, err := dec.Tuple()
			if err != nil {
				return nil, err
			}
			if t == nil {
				return nil, snapshot.Corruptf("nil tuple bound in match group")
			}
			g = append(g, t)
		}
		m.Groups[i] = g
	}
	return m, nil
}

// boundThrough reports whether m holds tuples at every step before k and
// none after it — the shape every live partial has while step k fills.
func boundThrough(m *Match, k int) bool {
	for i, g := range m.Groups {
		if (i < k && len(g) == 0) || (i > k && len(g) != 0) {
			return false
		}
	}
	return true
}

// --- run engine ---

func (e *runEngine) save(enc *snapshot.Encoder) {
	enc.Uvarint(uint64(len(e.buckets)))
	for _, bkt := range e.buckets {
		enc.Uvarint(uint64(len(bkt)))
		for _, r := range bkt {
			saveRun(enc, r)
		}
	}
	enc.Bool(e.cons != nil)
	if e.cons != nil {
		saveRun(enc, e.cons)
	}
	enc.Int(e.count)
	enc.Uvarint(e.nextOrd)
}

func saveRun(enc *snapshot.Encoder, r *run) {
	saveMatch(enc, r.m)
	enc.Int(r.cur)
	enc.TS(r.last)
	enc.Uvarint(r.ord)
}

// loadRun reads one pending run and checks it is a partial filling a
// step of the pattern, so no later push or eviction can index past it.
func (e *runEngine) loadRun(dec *snapshot.Decoder) (*run, error) {
	m, err := loadMatch(dec, len(e.def.Steps))
	if err != nil {
		return nil, err
	}
	cur, err := dec.Int()
	if err != nil {
		return nil, err
	}
	last, err := dec.TS()
	if err != nil {
		return nil, err
	}
	ord, err := dec.Uvarint()
	if err != nil {
		return nil, err
	}
	if cur < 0 || cur >= len(e.def.Steps) || !boundThrough(m, cur) {
		return nil, snapshot.Corruptf("run at step %d does not fit its bound groups", cur)
	}
	return &run{m: m, cur: cur, last: last, ord: ord}, nil
}

// load restores the buckets and checks the ordinals place and mergeVisit
// rely on: ascending within each bucket, and below nextOrd.
func (e *runEngine) load(dec *snapshot.Decoder) error {
	nb, err := dec.Len()
	if err != nil {
		return err
	}
	if nb != len(e.buckets) {
		return snapshot.Mismatchf("run engine has %d buckets, snapshot has %d", len(e.buckets), nb)
	}
	live, maxOrd := 0, uint64(0)
	for bi := range e.buckets {
		n, err := dec.Len()
		if err != nil {
			return err
		}
		bkt := e.buckets[bi][:0]
		for j := 0; j < n; j++ {
			r, err := e.loadRun(dec)
			if err != nil {
				return err
			}
			if r.cur != bi/2 || e.open(r) != (bi%2 == 1) {
				return snapshot.Corruptf("run at step %d filed in bucket %d", r.cur, bi)
			}
			if j > 0 && r.ord < bkt[j-1].ord {
				return snapshot.Corruptf("run ordinals descend in bucket %d", bi)
			}
			maxOrd = max(maxOrd, r.ord)
			r.bkt = int32(bi)
			r.pos = int32(j)
			bkt = append(bkt, r)
		}
		e.buckets[bi] = bkt
		live += n
	}
	hasCons, err := dec.Bool()
	if err != nil {
		return err
	}
	e.cons = nil
	if hasCons {
		r, err := e.loadRun(dec)
		if err != nil {
			return err
		}
		r.bkt = -1
		e.cons = r
	}
	count, err := dec.Int()
	if err != nil {
		return err
	}
	if count != live {
		return snapshot.Corruptf("run count %d disagrees with %d serialized runs", count, live)
	}
	e.count = count
	if e.nextOrd, err = dec.Uvarint(); err != nil {
		return err
	}
	if live > 0 && maxOrd >= e.nextOrd {
		return snapshot.Corruptf("run ordinal %d not below next ordinal %d", maxOrd, e.nextOrd)
	}
	e.visit = e.visit[:0]
	return nil
}

// --- chain engine ---

// save writes the history buffers, then the RECENT chains. A stamped body
// (EXPIRE AFTER over buffered steps) writes each tuple with its stamp and
// leads with the chains section, which these engines always hold empty: a
// body saved before stamps existed leads with its nonzero buffer count, so
// it fails load's count check instead of having its tuples read as stamps.
func (e *chainEngine) save(enc *snapshot.Encoder) {
	stamped := e.stamped()
	if stamped {
		e.saveChains(enc)
	}
	enc.Uvarint(uint64(len(e.bufs)))
	for i := range e.bufs {
		e.bufs[i].Save(enc, func(enc *snapshot.Encoder, h held) {
			enc.Tuple(h.t)
			if stamped {
				enc.TS(h.lo)
			}
		})
	}
	if !stamped {
		e.saveChains(enc)
	}
}

func (e *chainEngine) saveChains(enc *snapshot.Encoder) {
	enc.Uvarint(uint64(len(e.chains)))
	for _, c := range e.chains {
		enc.Bool(c != nil)
		if c != nil {
			saveMatch(enc, c)
		}
	}
}

func (e *chainEngine) load(dec *snapshot.Decoder) error {
	e.at = stream.MinTimestamp
	stamped := e.stamped()
	if stamped {
		if err := e.loadChains(dec); err != nil {
			return err
		}
	}
	nb, err := dec.Len()
	if err != nil {
		return err
	}
	if nb != len(e.bufs) {
		return snapshot.Mismatchf("chain engine has %d history buffers, snapshot has %d", len(e.bufs), nb)
	}
	for i := range e.bufs {
		if err := e.bufs[i].Load(dec, func(dec *snapshot.Decoder) (held, error) {
			t, err := window.LoadTuple(dec)
			if err != nil || !stamped {
				return held{t: t}, err
			}
			lo, err := dec.TS()
			return held{t: t, lo: lo}, err
		}); err != nil {
			return err
		}
	}
	if stamped {
		return nil
	}
	return e.loadChains(dec)
}

func (e *chainEngine) loadChains(dec *snapshot.Decoder) error {
	nc, err := dec.Len()
	if err != nil {
		return err
	}
	if nc != len(e.chains) {
		return snapshot.Mismatchf("chain engine has %d chains, snapshot has %d", len(e.chains), nc)
	}
	for i := range e.chains {
		has, err := dec.Bool()
		if err != nil {
			return err
		}
		if !has {
			e.chains[i] = nil
			continue
		}
		if e.chains[i], err = loadMatch(dec, len(e.def.Steps)); err != nil {
			return err
		}
	}
	return nil
}

// --- exception engine ---

// save writes the tracked sequence and its level; the engine's expiry is
// written by Matcher.Save with every other armed one.
func (e *exEngine) save(enc *snapshot.Encoder) {
	enc.Bool(e.run != nil)
	if e.run != nil {
		saveMatch(enc, e.run)
	}
	enc.Int(e.cur)
}

func (e *exEngine) load(dec *snapshot.Decoder) error {
	hasRun, err := dec.Bool()
	if err != nil {
		return err
	}
	e.run, e.armed = nil, 0
	if hasRun {
		if e.run, err = loadMatch(dec, len(e.m.def.Steps)); err != nil {
			return err
		}
	}
	if e.cur, err = dec.Int(); err != nil {
		return err
	}
	if hasRun && (e.cur < 1 || e.cur >= len(e.m.def.Steps) ||
		!boundThrough(e.run, e.cur) || len(e.run.Groups[e.cur]) != 0) ||
		!hasRun && e.cur != 0 {
		return snapshot.Corruptf("exception state at level %d does not fit its %d-step pattern", e.cur, len(e.m.def.Steps))
	}
	return nil
}

// --- Matcher ---

// Save serializes the matcher's live state in one frame for every engine
// kind: the clock, every partition's engine — first advanced to the last
// Advance, as eviction at every Advance would have left it — in
// deterministic (key hash, collision-chain position) order so the same
// logical state always yields the same bytes, then the armed exception
// expiries (timers) in arming order as (partition ordinal, deadline).
// Writing them in order normalizes their arming ordinals to ranks, so Load
// re-arms them with the same same-instant firing order and a
// save→load→save cycle is byte-stable. The reclaim queue is not written:
// Load rebuilds it.
func (m *Matcher) Save(enc *snapshot.Encoder) {
	enc.TS(m.clock)
	enc.Bool(m.single == nil)
	engs := []engine{m.single}
	if m.single == nil {
		m.catchUp()
		refs := sortedPartitions(m.parts)
		enc.Uvarint(uint64(len(refs)))
		engs = make([]engine, len(refs))
		for i, p := range refs {
			enc.Value(p.key)
			p.eng.save(enc)
			engs[i] = p.eng
		}
	} else {
		m.single.save(enc)
	}
	type armed struct {
		ord int
		x   *exEngine
	}
	var live []armed
	for i, eng := range engs {
		if x, ok := eng.(*exEngine); ok && x.armed != 0 {
			live = append(live, armed{i, x})
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].x.armed < live[b].x.armed })
	enc.Uvarint(uint64(len(live)))
	for _, a := range live {
		enc.Uvarint(uint64(a.ord))
		enc.TS(a.x.expiry)
	}
}

func sortedPartitions(parts map[uint64]*partition) []*partition {
	type ref struct {
		h uint64
		i int
		p *partition
	}
	refs := make([]ref, 0, len(parts))
	for h, p := range parts {
		for i := 0; p != nil; i, p = i+1, p.next {
			refs = append(refs, ref{h: h, i: i, p: p})
		}
	}
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].h != refs[b].h {
			return refs[a].h < refs[b].h
		}
		return refs[a].i < refs[b].i
	})
	out := make([]*partition, len(refs))
	for i, r := range refs {
		out[i] = r.p
	}
	return out
}

// Load restores state saved by Save into a matcher built from the same
// pattern. Loading into a differently-shaped matcher (partitioning, step
// count, mode) returns ErrStateMismatch; bytes Save never writes —
// partitions out of order or repeated, state that does not fit the
// pattern, a timer without a run to expire — return ErrCorrupt. Every
// restored partition queues as if last touched at the restored clock, or
// at its restored expiry.
func (m *Matcher) Load(dec *snapshot.Decoder) error {
	clock, err := dec.TS()
	if err != nil {
		return err
	}
	m.clock = clock
	m.swept = stream.MinTimestamp
	part, err := dec.Bool()
	if err != nil {
		return err
	}
	if part != m.def.Partitioned() {
		return snapshot.Mismatchf("matcher partitioned=%v, snapshot partitioned=%v", m.def.Partitioned(), part)
	}
	m.arms = 0
	m.exs = nil
	engs := []engine{m.single}
	if !part {
		if err := m.single.load(dec); err != nil {
			return err
		}
	} else {
		n, err := dec.Len()
		if err != nil {
			return err
		}
		m.parts = make(map[uint64]*partition, n)
		m.nparts = 0
		clear(m.reclaim)
		m.reclaim = m.reclaim[:0]
		engs = make([]engine, n)
		var prev uint64
		for i := range engs {
			key, err := dec.Value()
			if err != nil {
				return err
			}
			h := key.Hash()
			if (i > 0 && h < prev) || m.lookup(key) != nil {
				return snapshot.Corruptf("partition %d out of key order or repeated", i)
			}
			prev = h
			engs[i] = m.partitionFor(key).eng
			if err := engs[i].load(dec); err != nil {
				return err
			}
		}
	}
	k, err := dec.Len()
	if err != nil {
		return err
	}
	for j := 0; j < k; j++ {
		ord, err := dec.Uvarint()
		if err != nil {
			return err
		}
		at, err := dec.TS()
		if err != nil {
			return err
		}
		var x *exEngine
		if ord < uint64(len(engs)) {
			x, _ = engs[ord].(*exEngine)
		}
		if x == nil || x.run == nil || x.armed != 0 {
			return snapshot.Corruptf("timer %d names partition %d, which has no run awaiting it", j, ord)
		}
		x.setExpiry(at)
		x.queue()
	}
	return nil
}
