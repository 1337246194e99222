package core

import (
	"sort"

	"repro/internal/stream"
)

// runEngine matches patterns that need run-at-a-time state: star sequences
// (repeating steps with longest-match semantics) and everything in
// CONSECUTIVE mode, where only tuples adjacent on the joint history form
// events.
//
// A run is a partial match filling its steps left to right. Non-star steps
// bind one tuple and advance; a star step stays "open", absorbing further
// tuples of its stream (subject to the MaxGap inter-arrival constraint)
// until a tuple of the following step closes it — longest match, per
// §3.1.2. A trailing star emits online: one event per absorbed tuple, since
// "there might be no valid indicator to tell us to stop matching".
//
// Pending runs live in per-(step, phase) buckets: index cur*2 while the run
// waits for step cur to bind, cur*2+1 while step cur is an open star group
// still absorbing. absorb(s) therefore touches only bucket (s, open) and
// bind(s) only buckets (s, waiting) and (s-1, open), instead of scanning
// every pending run. Each bucket is kept sorted by the run's creation
// ordinal, so CHRONICLE's oldest-first and RECENT's newest-first visit
// orders fall out of a forward or backward merge of two bucket slices —
// the ordering invariant the pairing modes are defined by. RECENT's
// replace-at-level substitutes the victim's ordinal into its replacement,
// preserving the victim's slot in the visit order exactly as the old
// in-place slice write did.
type runEngine struct {
	def *Def
	key stream.Value

	buckets [][]*run // [cur*2 + openBit], each ascending by ord
	cons    *run     // CONSECUTIVE's single active run (buckets unused)
	count   int      // live runs across buckets (cons excluded)
	nextOrd uint64

	visit []*run // scratch snapshot for bind's two-bucket merge
	free  []*run // recycled run+Match shells (group arrays dropped)
}

type run struct {
	m    *Match
	cur  int              // step being filled; groups[cur] empty = waiting, non-empty = open star
	last stream.Timestamp // event time of the most recently bound tuple
	ord  uint64           // creation ordinal; RECENT replacement inherits its victim's
	bkt  int32            // bucket index, -1 while detached
	pos  int32            // position within the bucket
}

func newRunEngine(def *Def, key stream.Value) engine {
	return &runEngine{def: def, key: key, buckets: make([][]*run, 2*len(def.Steps))}
}

func (e *runEngine) rekey(key stream.Value) { e.key = key }

// runPoolCap bounds the free list so a burst of evictions cannot pin
// memory forever.
const runPoolCap = 128

func (e *runEngine) newRun() *run {
	if n := len(e.free); n > 0 {
		r := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		r.m.Key = e.key // the engine may have been rekeyed since release
		return r
	}
	return &run{
		m:   &Match{Groups: make([][]*stream.Tuple, len(e.def.Steps)), Key: e.key},
		bkt: -1,
	}
}

// release returns a dead run to the pool. Group arrays are dropped rather
// than truncated for reuse: under UNRESTRICTED copy-on-write forking they
// may still be shared with live runs or in-flight forks, and an append
// into a reused array would corrupt a sibling.
func (e *runEngine) release(r *run) {
	if len(e.free) >= runPoolCap {
		return
	}
	for i := range r.m.Groups {
		r.m.Groups[i] = nil
	}
	*r = run{m: r.m, bkt: -1}
	e.free = append(e.free, r)
}

// place inserts r into the bucket implied by its cur/open state, keeping
// the bucket sorted by ord. New runs and forks carry a fresh maximal
// ordinal and append in O(1); runs migrating between buckets binary-insert.
func (e *runEngine) place(r *run) {
	bi := r.cur * 2
	if e.open(r) {
		bi++
	}
	b := e.buckets[bi]
	i := len(b)
	if i > 0 && b[i-1].ord > r.ord {
		i = sort.Search(len(b), func(j int) bool { return b[j].ord > r.ord })
	}
	b = append(b, nil)
	copy(b[i+1:], b[i:])
	b[i] = r
	r.bkt = int32(bi)
	for j := i; j < len(b); j++ {
		b[j].pos = int32(j)
	}
	e.buckets[bi] = b
	e.count++
}

// detach unlinks r from its bucket in O(bucket), preserving the order of
// the remaining runs.
func (e *runEngine) detach(r *run) {
	b := e.buckets[r.bkt]
	i := int(r.pos)
	copy(b[i:], b[i+1:])
	b[len(b)-1] = nil
	b = b[:len(b)-1]
	for j := i; j < len(b); j++ {
		b[j].pos = int32(j)
	}
	e.buckets[r.bkt] = b
	r.bkt = -1
	e.count--
}

// open reports whether the run's current step is a star group already
// holding tuples (still absorbing).
func (e *runEngine) open(r *run) bool {
	return r.cur < len(e.def.Steps) && len(r.m.Groups[r.cur]) > 0
}

// level counts completed steps: steps before cur, plus the current star
// group once it holds at least one tuple.
func (e *runEngine) level(r *run) int {
	if e.open(r) {
		return r.cur + 1
	}
	return r.cur
}

func (e *runEngine) push(steps []int, mask uint64, t *stream.Tuple) ([]*Match, error) {
	if e.def.Mode == ModeConsecutive {
		return e.pushConsecutive(mask, t), nil
	}
	return e.pushPending(steps, mask, t), nil
}

// ---- CONSECUTIVE ----------------------------------------------------------

// pushConsecutive advances the single active run over the joint history.
// Every pushed tuple is part of the joint history; one that cannot extend
// the run breaks it, and may start a fresh run at step 0.
func (e *runEngine) pushConsecutive(mask uint64, t *stream.Tuple) []*Match {
	var out []*Match
	if r := e.cons; r != nil {
		if done, matched := e.tryExtend(r, mask, t, &out); matched {
			if done {
				e.cons = nil
				e.release(r)
			}
			return out
		}
		// Break: the run dies; the breaking tuple may start a new one.
		e.cons = nil
		e.release(r)
	}
	if r, ok := e.tryStart(mask, t, &out); ok {
		e.cons = r
	}
	return out
}

// tryExtend attempts to absorb t into r's open star group or bind it to the
// next step. done reports the run completed (emitted); matched reports t
// was accepted at all.
func (e *runEngine) tryExtend(r *run, mask uint64, t *stream.Tuple, out *[]*Match) (done, matched bool) {
	last := len(e.def.Steps) - 1
	// Absorb into the open star group (longest match: prefer absorbing over
	// closing the group).
	if e.open(r) && e.def.Steps[r.cur].Star && maskHas(mask, r.cur) {
		g := r.m.Groups[r.cur]
		st := &e.def.Steps[r.cur]
		if gapAdmits(st, g[len(g)-1], t) &&
			windowAdmits(e.def, r.m, r.cur, t) && predAdmits(e.def, r.m, r.cur, t) {
			r.m.Groups[r.cur] = append(g, t)
			r.last = t.TS
			if r.cur == last {
				*out = append(*out, r.m.clone()) // online emission
			}
			return false, true
		}
		// Gap or constraint violation: fall through to try closing the
		// group and binding the next step; otherwise it is a break.
	}
	target := r.cur
	if e.open(r) {
		target = r.cur + 1
	}
	if target > last || !maskHas(mask, target) {
		return false, false
	}
	if !windowAdmits(e.def, r.m, target, t) || !predAdmits(e.def, r.m, target, t) {
		return false, false
	}
	r.m.Groups[target] = []*stream.Tuple{t}
	r.last = t.TS
	r.cur = target
	if e.def.Steps[target].Star {
		if target == last {
			*out = append(*out, r.m.clone())
		}
		return false, true
	}
	if target == last {
		*out = append(*out, r.m.clone())
		return true, true
	}
	r.cur = target + 1
	return false, true
}

// tryStart begins a new run with t at step 0.
func (e *runEngine) tryStart(mask uint64, t *stream.Tuple, out *[]*Match) (*run, bool) {
	if mask&1 == 0 {
		return nil, false
	}
	r := e.newRun()
	if !windowAdmits(e.def, r.m, 0, t) || !predAdmits(e.def, r.m, 0, t) {
		e.release(r)
		return nil, false
	}
	last := len(e.def.Steps) - 1
	r.m.Groups[0] = []*stream.Tuple{t}
	r.last = t.TS
	if e.def.Steps[0].Star {
		if last == 0 {
			*out = append(*out, r.m.clone())
		}
		return r, true
	}
	if last == 0 {
		*out = append(*out, r.m.clone())
		e.release(r)
		return nil, false // complete; nothing pending
	}
	r.cur = 1
	return r, true
}

// ---- UNRESTRICTED / RECENT / CHRONICLE with stars -------------------------

// pushPending maintains the bucketed set of pending runs. Mode picks which
// runs an arriving tuple binds to: CHRONICLE the earliest qualifying run
// (and the tuple participates only once), RECENT the most recent qualifying
// run, UNRESTRICTED every qualifying run (advancing forks a copy-on-write
// run so the original remains available to later combinations).
func (e *runEngine) pushPending(steps []int, mask uint64, t *stream.Tuple) []*Match {
	var out []*Match
	for _, s := range steps {
		absorbed := e.absorb(s, t, &out)
		if absorbed && e.def.Mode == ModeChronicle {
			break // CHRONICLE: tuple participates at most once
		}
		bound := false
		if !absorbed {
			bound = e.bind(s, t, &out)
			if bound && e.def.Mode == ModeChronicle {
				break
			}
		}
		// A step-0 tuple that joined no existing star run starts a new run.
		// (Non-star step 0 in UNRESTRICTED always forks a new run, since
		// every choice of step-0 tuple is a distinct combination.)
		if s == 0 && !absorbed && (!bound || (e.def.Mode == ModeUnrestricted && !e.def.Steps[0].Star)) {
			if r, ok := e.tryStart(mask, t, &out); ok {
				e.startRun(r)
			}
		}
	}
	return out
}

// startRun registers a new run, applying RECENT's one-run-per-level purge.
func (e *runEngine) startRun(r *run) {
	if e.def.Mode == ModeRecent {
		e.replaceAtLevel(r)
		return
	}
	r.ord = e.nextOrd
	e.nextOrd++
	e.place(r)
}

// replaceAtLevel keeps at most one run per completion level under RECENT:
// the newest (the "most recent qualifying" candidate) replaces the oldest
// run at the same level, inheriting its ordinal and therefore its slot in
// the newest-first visit order.
func (e *runEngine) replaceAtLevel(r *run) {
	lvl := e.level(r)
	// Level lvl runs live in bucket (lvl, waiting) or (lvl-1, open); the
	// victim is the lowest-ordinal run across both, i.e. each bucket's head.
	var victim *run
	if bi := lvl * 2; bi < len(e.buckets) && len(e.buckets[bi]) > 0 {
		victim = e.buckets[bi][0]
	}
	if lvl > 0 {
		if b := e.buckets[(lvl-1)*2+1]; len(b) > 0 {
			if c := b[0]; victim == nil || c.ord < victim.ord {
				victim = c
			}
		}
	}
	if victim != nil {
		r.ord = victim.ord
		e.detach(victim)
		e.release(victim)
	} else {
		r.ord = e.nextOrd
		e.nextOrd++
	}
	e.place(r)
}

// absorb extends open star groups at step s — exactly the runs in bucket
// (s, open). Returns whether t was absorbed anywhere. Absorbing never
// migrates a run (cur and openness are unchanged), so the bucket is
// iterated in place.
func (e *runEngine) absorb(s int, t *stream.Tuple, out *[]*Match) bool {
	st := &e.def.Steps[s]
	if !st.Star {
		return false
	}
	b := e.buckets[s*2+1]
	if len(b) == 0 {
		return false
	}
	last := len(e.def.Steps) - 1
	any := false
	// CHRONICLE extends the oldest qualifying group, RECENT the newest,
	// UNRESTRICTED all of them.
	recent := e.def.Mode == ModeRecent
	for k := 0; k < len(b); k++ {
		r := b[k]
		if recent {
			r = b[len(b)-1-k]
		}
		g := r.m.Groups[s]
		if !gapAdmits(st, g[len(g)-1], t) ||
			!windowAdmits(e.def, r.m, s, t) || !predAdmits(e.def, r.m, s, t) {
			continue
		}
		r.m.Groups[s] = append(g, t)
		r.last = t.TS
		any = true
		if s == last {
			*out = append(*out, r.m.clone())
		}
		if e.def.Mode != ModeUnrestricted {
			break // others bind a single run
		}
	}
	return any
}

// bind attaches t at step s to qualifying runs waiting there (bucket
// (s, waiting)) or closes an open star group at s-1 (bucket (s-1, open)).
// Completed runs are emitted; CHRONICLE removes them (participants
// consumed).
func (e *runEngine) bind(s int, t *stream.Tuple, out *[]*Match) bool {
	last := len(e.def.Steps) - 1
	wait := e.buckets[s*2]
	var opened []*run
	if s > 0 {
		opened = e.buckets[(s-1)*2+1]
	}
	if len(wait) == 0 && len(opened) == 0 {
		return false
	}
	// Snapshot the ord-merged union first: the loop body migrates in-place
	// runs between buckets and appends forks, and — like the old slice
	// snapshot — runs added during the visit must not be visited.
	cands := e.mergeVisit(wait, opened)
	bound := false
	for _, r := range cands {
		if !windowAdmits(e.def, r.m, s, t) || !predAdmits(e.def, r.m, s, t) {
			continue
		}
		target := r // CHRONICLE/RECENT advance in place
		forked := false
		if e.def.Mode == ModeUnrestricted {
			target = e.fork(r)
			forked = true
		} else {
			e.detach(r)
		}
		target.m.Groups[s] = []*stream.Tuple{t}
		target.last = t.TS
		target.cur = s
		bound = true
		switch {
		case e.def.Steps[s].Star:
			if s == last {
				*out = append(*out, target.m.clone())
			}
			e.admit(target, forked)
		case s == last:
			*out = append(*out, target.m.clone())
			e.release(target) // complete: in-place already detached, forks never placed
		default:
			target.cur = s + 1
			e.admit(target, forked)
		}
		// RECENT binds the single most recent qualifying run; CHRONICLE the
		// earliest; UNRESTRICTED continues over all.
		if e.def.Mode != ModeUnrestricted {
			break
		}
	}
	return bound
}

// admit places an advanced run back into the buckets: forks are new runs
// and take a fresh maximal ordinal (the old code appended them to the run
// slice); in-place advances keep their ordinal, preserving their slot in
// the mode's visit order.
func (e *runEngine) admit(r *run, forked bool) {
	if forked {
		r.ord = e.nextOrd
		e.nextOrd++
	}
	e.place(r)
}

// fork builds the UNRESTRICTED copy-on-write copy of r: a fresh (possibly
// pooled) Match spine sharing r's group arrays, both sides capped so any
// later append reallocates instead of writing into the sibling's storage.
func (e *runEngine) fork(r *run) *run {
	f := e.newRun()
	r.m.cowInto(f.m)
	f.cur = r.cur
	return f
}

// mergeVisit snapshots the ord-merge of two sorted buckets into the visit
// scratch: ascending (oldest first) for CHRONICLE/UNRESTRICTED, descending
// (newest first) for RECENT.
func (e *runEngine) mergeVisit(a, b []*run) []*run {
	v := e.visit[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].ord < b[j].ord {
			v = append(v, a[i])
			i++
		} else {
			v = append(v, b[j])
			j++
		}
	}
	v = append(v, a[i:]...)
	v = append(v, b[j:]...)
	if e.def.Mode == ModeRecent {
		for x, y := 0, len(v)-1; x < y; x, y = x+1, y-1 {
			v[x], v[y] = v[y], v[x]
		}
	}
	e.visit = v
	return v
}

// advance evicts runs whose window can no longer be satisfied at event time
// ts (see horizon.dead) and runs idle past Def.ExpireAfter. Compaction is
// per bucket, so the ord order within each bucket is preserved.
func (e *runEngine) advance(ts stream.Timestamp) {
	if e.def.Window == nil && e.def.ExpireAfter == 0 {
		return
	}
	if r := e.cons; r != nil && (e.expired(r, ts) || e.idle(r, ts)) {
		e.cons = nil
		e.release(r)
	}
	for bi, b := range e.buckets {
		if len(b) == 0 {
			continue
		}
		kept := b[:0]
		for _, r := range b {
			if e.expired(r, ts) || e.idle(r, ts) {
				e.count--
				e.release(r)
				continue
			}
			r.pos = int32(len(kept))
			kept = append(kept, r)
		}
		for i := len(kept); i < len(b); i++ {
			b[i] = nil
		}
		e.buckets[bi] = kept
	}
}

// idle applies Def.ExpireAfter to runs that stopped making progress.
func (e *runEngine) idle(r *run, ts stream.Timestamp) bool {
	return e.def.ExpireAfter > 0 && r.last < ts.Add(-e.def.ExpireAfter)
}

// expired reports whether r's window can no longer be satisfied at ts.
func (e *runEngine) expired(r *run, ts stream.Timestamp) bool {
	return e.def.hz.dead(r.m, e.level(r), ts)
}

func (e *runEngine) stateSize() int {
	n := 0
	e.eachLive(func(r *run) {
		for _, g := range r.m.Groups {
			n += len(g)
		}
	})
	return n
}

func (e *runEngine) runCount() int {
	n := e.count
	if e.cons != nil {
		n++
	}
	return n
}

// eachLive visits every pending run (bucket order; for accounting only).
func (e *runEngine) eachLive(fn func(*run)) {
	if e.cons != nil {
		fn(e.cons)
	}
	for _, b := range e.buckets {
		for _, r := range b {
			fn(r)
		}
	}
}

// maskHas tests step membership in a qualifying-step bitmask — the
// constant-time replacement for the old linear stepIn scan.
func maskHas(mask uint64, s int) bool {
	return mask&(1<<uint(s)) != 0
}

// maskOf folds step indexes into a bitmask.
func maskOf(steps []int) uint64 {
	var m uint64
	for _, s := range steps {
		m |= 1 << uint(s)
	}
	return m
}
