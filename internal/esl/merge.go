package esl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/stream"
)

// Multi-query plan merging.
//
// N registered alert queries frequently share a SEQ prefix — "pallet seen at
// the dock, then at reader R_i" for a thousand different R_i — and the
// pre-merge engine ran N automata over the same prefix state. This layer
// canonicalizes each eligible SEQ query at registration, groups queries whose
// shared structure provably admits one automaton, and runs the group on a
// single core.Matcher: the final step's filter widens to the union of the
// members' final predicates (core.AcceptSet.Visible), and each completed
// match is attributed to the members that individually accept it. N queries
// sharing a k-step prefix then pay one prefix match plus N (indexed) cheap
// acceptance checks per completion.
//
// Two merge tiers, by safety:
//
//   - prefix tier: members differ only in their final-step predicates.
//     Sound when a final-step tuple that one member cannot see is a pure
//     no-op for that member's independent automaton: plain SEQ, non-star
//     final step, UNRESTRICTED mode (completion forks copy-on-write state,
//     originals untouched) or star-free RECENT (completion is a mutation-free
//     chain read), no idle expiry (expiry would couple run lifetime to other
//     members' final visibility), and no previous-operator constraint at the
//     final step. Queries may join an active group at any time: a MinSeq
//     fence on the member's acceptor hides matches built from tuples that
//     predate its registration, which is exactly the fresh-automaton
//     behavior.
//
//   - identical tier: members are structurally identical end to end
//     (fullSig equality), any SEQ mode including CHRONICLE and CONSECUTIVE.
//     The group runs the member's exact plan — same predicates, same final
//     filter — so every member accepts every match; joining is only allowed
//     while the group is virgin (no tuple delivered yet), because a
//     mid-stream joiner would otherwise inherit state it should not have.
//
// A group is invisible to the query API: members remain ordinary *Query
// values (stats, quarantine, snapshots all per-member); the group owns one
// hidden reader query that is not in Engine.queries.

// mergeSpec is the planner's merge classification of one SEQ query, built at
// compile time by buildMergeSpec.
type mergeSpec struct {
	// eligible: the query can join at least the identical tier (its
	// predicates all canonicalize). reason explains ineligibility, or — when
	// eligible but not prefixSafe — why the prefix tier is out.
	eligible   bool
	prefixSafe bool
	reason     string

	// fullSig keys the identical tier; prefixSig keys the prefix tier
	// (structure and predicates of all steps but the final, plus the final
	// step's structural shape).
	fullSig   string
	prefixSig string

	// Prefix-tier member data: the member's fused final-step filter, its
	// `col = literal` shape for acceptance indexing (finalEqPos < 0 when
	// none), and its residual multi-step acceptance check on the completed
	// match. prefixPred is the shared predicate with the final step's
	// residuals removed.
	finalFilter func(*stream.Tuple) bool
	finalEqPos  int
	finalEqVal  stream.Value
	finalCheck  func(*core.Match) bool
	prefixPred  func(*core.Match, int, *stream.Tuple) bool
}

// buildMergeSpec canonicalizes a compiled SEQ query and derives its merge
// tiers. resolve maps a column reference to its step ordinal; ord maps a
// step alias.
func buildMergeSpec(op *eventOp, keyCols map[string]string, aliasStream map[string]string,
	predsByStep [][]stepConjunct, stepFilters [][]compiledPred, stepFilterExprs [][]Expr,
	resolve func(*ColRef) (int, bool), ord func(string) (int, bool)) *mergeSpec {

	spec := &mergeSpec{finalEqPos: -1}
	n := len(op.def.Steps)

	// Canonical signatures: per step, the structural shape (source stream,
	// star flag, partition key column, gap bound), the pushed-down filter
	// conjunct set, and the residual predicate set — each conjunct rendered
	// with aliases normalized to step ordinals and the set sorted, so
	// textually different but equivalent queries compare equal.
	structSigs := make([]string, n)
	filterSigs := make([]string, n)
	predSigs := make([]string, n)
	for i := 0; i < n; i++ {
		st := &op.def.Steps[i]
		lower := op.lowerAliases[i]
		key := ""
		if keyCols != nil {
			key = keyCols[lower]
		}
		structSigs[i] = fmt.Sprintf("s=%s star=%t key=%s gap=%d",
			strings.ToLower(aliasStream[lower]), st.Star, key, st.MaxGap)
		var fs []string
		for _, ex := range stepFilterExprs[i] {
			s, ok := canonExpr(ex, resolve, ord)
			if !ok {
				spec.reason = "a predicate contains a function call or sub-query"
				return spec
			}
			fs = append(fs, s)
		}
		filterSigs[i] = "f{" + canonSet(fs) + "}"
		var ps []string
		for _, cl := range predsByStep[i] {
			s, ok := canonExpr(cl.expr, resolve, ord)
			if !ok {
				spec.reason = "a predicate contains a function call or sub-query"
				return spec
			}
			ps = append(ps, s)
		}
		predSigs[i] = "p{" + canonSet(ps) + "}"
	}
	winSig := "w=-"
	if w := op.def.Window; w != nil {
		winSig = fmt.Sprintf("w=%d@%d/%t", w.Span, w.Step, w.Following)
	}
	global := fmt.Sprintf("SEQ mode=%d %s exp=%d", op.def.Mode, winSig, op.def.ExpireAfter)

	spec.eligible = true
	full := make([]string, 0, 1+3*n)
	full = append(full, global)
	for i := 0; i < n; i++ {
		full = append(full, structSigs[i], filterSigs[i], predSigs[i])
	}
	spec.fullSig = strings.Join(full, " | ")

	anyStar := false
	for i := 0; i < n; i++ {
		if op.def.Steps[i].Star {
			anyStar = true
		}
	}
	finalPrev := false
	for _, cl := range predsByStep[n-1] {
		if cl.hasPrev {
			finalPrev = true
		}
	}
	switch {
	case n < 2:
		spec.reason = "single-step pattern has no shareable prefix"
	case op.def.Steps[n-1].Star:
		spec.reason = "star final step binds more than one tuple"
	case op.def.Mode == core.ModeChronicle:
		spec.reason = "CHRONICLE consumes shared prefix tuples on match"
	case op.def.Mode == core.ModeConsecutive:
		spec.reason = "CONSECUTIVE breaks runs on visible non-extending tuples"
	case op.def.Mode == core.ModeRecent && anyStar:
		spec.reason = "RECENT with star steps mutates run state at the final step"
	case op.def.ExpireAfter > 0:
		spec.reason = "idle expiry couples run lifetime to other members' final visibility"
	case finalPrev:
		spec.reason = "a final-step predicate uses the previous operator"
	default:
		spec.prefixSafe = true
	}
	if !spec.prefixSafe {
		return spec
	}

	pre := make([]string, 0, 2+3*(n-1))
	pre = append(pre, global)
	for i := 0; i < n-1; i++ {
		pre = append(pre, structSigs[i], filterSigs[i], predSigs[i])
	}
	pre = append(pre, structSigs[n-1])
	spec.prefixSig = strings.Join(pre, " | ")

	spec.finalFilter = fuseFilters(stepFilters[n-1])
	for _, cp := range stepFilters[n-1] {
		if cp.isEq {
			spec.finalEqPos, spec.finalEqVal = cp.eqPos, cp.eqVal
			break
		}
	}
	if len(predsByStep[n-1]) > 0 {
		spec.finalCheck = buildCheckClosure(op.nslots, n, predsByStep[n-1])
	}
	hasPrefixPreds := false
	for i := 0; i < n-1; i++ {
		if len(predsByStep[i]) > 0 {
			hasPrefixPreds = true
		}
	}
	if hasPrefixPreds {
		spec.prefixPred = buildPredClosure(op.nslots, n, predsByStep, n-1)
	}
	return spec
}

// buildCheckClosure assembles the final step's residual conjuncts into a
// per-member acceptance check over the completed match. It reproduces the
// bind-time evaluation frame exactly: every step bound from the match, the
// final step to the final tuple.
func buildCheckClosure(nslots, nsteps int, finals []stepConjunct) func(*core.Match) bool {
	return func(m *core.Match) bool {
		f := getFrame(nslots, nil)
		f.bindMatch(m, nsteps)
		held := true
		for _, cl := range finals {
			if ok, err := cl.fn(f); err != nil || !ok {
				held = false
				break
			}
		}
		putFrame(f)
		return held
	}
}

// ---- groups ----------------------------------------------------------------

const (
	tierPrefix    = "prefix"
	tierIdentical = "identical"
)

// mergeGroup is one shared automaton and its member queries.
type mergeGroup struct {
	id   int
	tier string // tierPrefix | tierIdentical
	sig  string // prefixSig (prefix tier) or fullSig (identical tier)

	// q is the hidden reader query owning the group's stream edges. It is
	// NOT in Engine.queries: stats, snapshots and the public query list see
	// only the members.
	q *Query

	def    core.Def
	seq    *core.Matcher
	accept core.AcceptSet

	members []*memberOp
	nextID  int

	// virgin is true until the first tuple is delivered; identical-tier
	// joins are only allowed while virgin.
	virgin bool
	// guardsDirty is set when membership changed since the group reader's
	// routing guards were last recomputed (see refreshRoutesLocked).
	guardsDirty bool

	acceptBuf []int
	resolved  []resolvedEntry
}

func (g *mergeGroup) leader() *memberOp {
	if len(g.members) == 0 {
		return nil
	}
	return g.members[0]
}

// memberByID finds a member by acceptance ID. IDs are assigned from a
// monotone counter and members are never reordered, so the slice is
// ID-sorted and a binary search suffices — the lookup runs once per
// accepted (query, match) pair on the emission hot path.
func (g *mergeGroup) memberByID(id int) *memberOp {
	lo, hi := 0, len(g.members)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.members[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.members) && g.members[lo].id == id {
		return g.members[lo]
	}
	return nil
}

func (g *mergeGroup) resolveFor(aliases []string) *core.Resolved {
	for i := range g.resolved {
		re := &g.resolved[i]
		if len(re.aliases) == len(aliases) && (len(aliases) == 0 || &re.aliases[0] == &aliases[0]) {
			return re.res
		}
	}
	res := g.seq.Resolve(aliases...)
	g.resolved = append(g.resolved, resolvedEntry{aliases: aliases, res: res})
	return res
}

// emitMatch attributes one completed shared match to the accepting members,
// in registration order, each behind its own panic-isolation boundary.
func (g *mergeGroup) emitMatch(e *Engine, m *core.Match) error {
	t := m.Last(len(g.def.Steps) - 1)
	g.acceptBuf = g.accept.Accepted(t, m, g.acceptBuf[:0])
	for _, id := range g.acceptBuf {
		mem := g.memberByID(id)
		if mem == nil || mem.ev.q.quarantined {
			continue
		}
		if err := e.emitMemberLocked(mem, m, t); err != nil {
			return err
		}
	}
	return nil
}

// emitMemberLocked projects one match for one member behind the member's
// panic-isolation boundary: a projection panic (e.g. a UDF in the select
// list) quarantines that member only, not the group.
func (e *Engine) emitMemberLocked(mem *memberOp, m *core.Match, t *stream.Tuple) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = nil
			e.quarantineQueryLocked(mem.ev.q, t, r)
		}
	}()
	return mem.ev.emitMatch(m)
}

// mergedOp is the hidden group query's runtime: it feeds the shared matcher
// and fans completed matches out through the accept set.
type mergedOp struct {
	e *Engine
	g *mergeGroup
}

func (op *mergedOp) pushBatch(aliases []string, b *stream.Batch) error {
	e, g := op.e, op.g
	if len(b.Tuples) > 0 {
		g.virgin = false
	}
	r := g.resolveFor(aliases)
	bms, err := g.seq.PushBatchAt(r, b.Tuples, b.Prev)
	if err != nil {
		return err
	}
	if len(bms) == 0 {
		return nil
	}
	if len(g.members) == 1 {
		return e.emitSoleMemberLocked(g, b, bms)
	}
	for _, bm := range bms {
		if t := b.Tuples[bm.Index]; t.TS > e.now {
			e.now = t.TS
		}
		if err := g.emitMatch(e, bm.Match); err != nil {
			return err
		}
	}
	return nil
}

// emitSoleMemberLocked drains a batch's matches for a single-member group
// behind one panic boundary instead of one per match. Equivalent to
// per-match isolation: a projection panic quarantines the member, and a
// quarantined member would have been skipped for every remaining match
// anyway. Event-time updates skipped after a panic are subsumed by the
// caller's end-of-run clock advance.
func (e *Engine) emitSoleMemberLocked(g *mergeGroup, b *stream.Batch, bms []core.BatchMatch) (err error) {
	mem := g.members[0]
	acc := g.accept.Sole()
	last := len(g.def.Steps) - 1
	// A match completing in this push already passed the final-step filter —
	// for a singleton group that IS the sole member's visibility test, and
	// membership cannot change mid-push. With no residual multi-step check
	// and no registration fence, admission is therefore already decided.
	preAccepted := acc.Check == nil && acc.MinSeq == 0
	var cur *stream.Tuple
	defer func() {
		if r := recover(); r != nil {
			err = nil
			e.quarantineQueryLocked(mem.ev.q, cur, r)
		}
	}()
	for _, bm := range bms {
		if t := b.Tuples[bm.Index]; t.TS > e.now {
			e.now = t.TS
		}
		cur = bm.Match.Last(last)
		if mem.ev.q.quarantined || (!preAccepted && !acc.Accepts(cur, bm.Match)) {
			continue
		}
		if err := mem.ev.emitMatch(bm.Match); err != nil {
			return err
		}
	}
	return nil
}

func (op *mergedOp) advance(ts stream.Timestamp) error {
	op.g.seq.Advance(ts)
	return nil
}

func (op *mergedOp) timeSensitive() bool { return op.g.def.ExpireAfter > 0 }

// memberOp is a merged member's runtime stub: the member receives no input
// of its own (the group reader feeds the shared matcher), so pushBatch/advance
// are no-ops; projection state lives on the wrapped eventOp.
type memberOp struct {
	ev      *eventOp
	g       *mergeGroup
	id      int
	joinSeq uint64 // engine sequence at registration: the MinSeq fence
}

func (op *memberOp) pushBatch([]string, *stream.Batch) error { return nil }
func (op *memberOp) advance(stream.Timestamp) error          { return nil }
func (op *memberOp) timeSensitive() bool                     { return op.g.def.ExpireAfter > 0 }

// The group leader reports the shared automaton's state; other members
// report zero so sums over queries stay meaningful.
func (op *memberOp) stateSize() int {
	if op.g.leader() == op {
		return op.g.seq.StateSize()
	}
	return 0
}

func (op *memberOp) kind() string {
	if len(op.g.members) == 1 {
		return "event(SEQ)"
	}
	return fmt.Sprintf("event(SEQ, merged x%d)", len(op.g.members))
}

func (op *memberOp) runCount() int {
	if op.g.leader() == op {
		return op.g.seq.RunCount()
	}
	return 0
}

// ---- registration ----------------------------------------------------------

// joinGroupLocked adds a compiled eligible SEQ query to a compatible group,
// creating one when none exists. Joining never migrates state: a prefix-tier
// joiner is fenced by MinSeq, an identical-tier joiner requires a virgin
// group (otherwise it starts a fresh group of its own).
func (e *Engine) joinGroupLocked(ev *eventOp, q *Query, inputs map[string][]string) (*memberOp, error) {
	spec := ev.merge
	var g *mergeGroup
	for _, cand := range e.groups {
		if cand.q.quarantined {
			continue
		}
		if spec.prefixSafe && cand.tier == tierPrefix && cand.sig == spec.prefixSig {
			g = cand
			break
		}
		if !spec.prefixSafe && cand.tier == tierIdentical && cand.sig == spec.fullSig && cand.virgin {
			g = cand
			break
		}
	}
	if g == nil {
		var err error
		g, err = e.newGroupLocked(ev, inputs)
		if err != nil {
			return nil, err
		}
	}
	mem := &memberOp{ev: ev, g: g, id: g.nextID, joinSeq: e.seq}
	g.nextID++
	acc := core.Acceptor{ID: mem.id, EqPos: -1, MinSeq: mem.joinSeq}
	if g.tier == tierPrefix {
		acc.EqPos = spec.finalEqPos
		acc.EqVal = spec.finalEqVal
		acc.Filter = spec.finalFilter
		acc.Check = spec.finalCheck
	}
	g.accept.Add(acc)
	g.members = append(g.members, mem)
	g.refreshFinalFilter()
	// Guard regrouping rebuilds the union over ALL members — doing it per
	// join makes a q-member group O(q^2) to assemble. Mark dirty; the next
	// push regroups once. The stale guard is only ever too narrow for the
	// new member, never wrong for tuples it admits, and nothing dispatches
	// before refreshRoutesLocked runs.
	g.guardsDirty = true
	e.routesDirty = true
	return mem, nil
}

// refreshFinalFilter keeps the shared automaton's final-step filter in step
// with membership. A singleton prefix group runs its sole member's compiled
// filter directly — the acceptance union over one member is the same test
// behind an extra indirection — and widens to accept.Visible when a second
// member joins. The matcher reads steps through the group def's shared
// backing array, so the swap takes effect on the next push; membership only
// changes between pushes (registration and deregistration hold the engine
// lock), never mid-batch.
func (g *mergeGroup) refreshFinalFilter() {
	if g.tier != tierPrefix {
		return
	}
	last := len(g.def.Steps) - 1
	if len(g.members) == 1 {
		g.def.Steps[last].Filter = g.members[0].ev.merge.finalFilter
	} else {
		g.def.Steps[last].Filter = g.accept.Visible
	}
}

// newGroupLocked builds a group around its first member's plan and wires its
// hidden reader query into the member's input streams.
func (e *Engine) newGroupLocked(ev *eventOp, inputs map[string][]string) (*mergeGroup, error) {
	spec := ev.merge
	g := &mergeGroup{id: e.nextGroupID, virgin: true}
	e.nextGroupID++
	g.def = ev.def
	g.def.Steps = append([]core.Step(nil), ev.def.Steps...)
	if spec.prefixSafe {
		g.tier, g.sig = tierPrefix, spec.prefixSig
		// The shared final step sees the union of the members' final
		// filters; per-member residuals move into the acceptors.
		g.def.Steps[len(g.def.Steps)-1].Filter = g.accept.Visible
		g.def.Pred = spec.prefixPred
		seq, err := core.NewMatcher(g.def)
		if err != nil {
			return nil, err
		}
		g.seq = seq
	} else {
		// Identical tier: the group definition IS the founding member's, so
		// its freshly compiled (never pushed) matcher serves as the shared
		// automaton directly.
		g.tier, g.sig = tierIdentical, spec.fullSig
		g.seq = ev.seq
	}
	gq := &Query{Name: fmt.Sprintf("(merged group %d)", g.id)}
	gq.sink = func(Row) error { return nil }
	gq.op = &mergedOp{e: e, g: g}
	g.q = gq
	for streamName, aliases := range inputs {
		key := strings.ToLower(streamName)
		si := e.streams[key]
		si.readers = append(si.readers, reader{q: gq, aliases: aliases})
		gq.reads = append(gq.reads, key)
	}
	sort.Strings(gq.reads)
	e.groups = append(e.groups, g)
	return g, nil
}

// regroupGuardsLocked recomputes the group reader's routing guard on every
// input stream: the union (OR) of the members' guards when every member has
// a strict guard there, unguarded (conservative) otherwise. A tuple the
// union rejects fails every member's step equalities, so it can bind no step
// of the shared automaton either.
func (e *Engine) regroupGuardsLocked(g *mergeGroup) {
	for _, key := range g.q.reads {
		si := e.streams[key]
		var union *streamGuard
		if !e.noRoute {
			union = &streamGuard{strict: true}
			// Dedup member values by hash instead of streamGuard.add's
			// linear scan: a q-member union would otherwise cost O(q^2)
			// value comparisons. Hash collisions fall back to Equal chains.
			type colSet struct {
				idx  int
				seen map[uint64][]stream.Value
			}
			sets := map[int]*colSet{}
			for _, mem := range g.members {
				mg := mem.ev.q.guards[key]
				if mg == nil || !mg.strict {
					union = nil
					break
				}
				for i := range mg.preds {
					p := &mg.preds[i]
					cs := sets[p.pos]
					if cs == nil {
						union.preds = append(union.preds, guardPred{col: p.col, pos: p.pos})
						cs = &colSet{idx: len(union.preds) - 1, seen: map[uint64][]stream.Value{}}
						sets[p.pos] = cs
					}
				valLoop:
					for _, v := range p.vals {
						h := v.Hash()
						for _, u := range cs.seen[h] {
							if u.Equal(v) {
								continue valLoop
							}
						}
						cs.seen[h] = append(cs.seen[h], v)
						union.preds[cs.idx].vals = append(union.preds[cs.idx].vals, v)
					}
				}
			}
		}
		for i := range si.readers {
			if si.readers[i].q == g.q {
				si.readers[i].guard = union
			}
		}
		si.routeDirty = true
		e.routesDirty = true
	}
}

// refreshRoutesLocked rebuilds the routing state that registrations since
// the last push invalidated: dirty merge groups recompute their guard
// unions, then dirty streams refold their route tables. Called at every
// ingestion entry point; the common case is a single flag test.
func (e *Engine) refreshRoutesLocked() {
	if !e.routesDirty {
		return
	}
	for _, g := range e.groups {
		if g.guardsDirty {
			g.guardsDirty = false
			e.regroupGuardsLocked(g)
		}
	}
	for _, si := range e.streams {
		if si.routeDirty {
			si.routeDirty = false
			si.route = buildRouteTable(si.readers)
		}
	}
	e.routesDirty = false
}

// ---- deregistration --------------------------------------------------------

// Unregister removes a continuous query from the engine. For a merged member
// the group's acceptance entry is dropped; when the last member leaves, the
// group — shared automaton state, stream readers, routing entries — is torn
// down with it, so shared-prefix runs never outlive their consumers.
func (e *Engine) Unregister(q *Query) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	idx := -1
	for i, qq := range e.queries {
		if qq == q {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("esl: query %s is not registered", q.describe())
	}
	e.queries = append(e.queries[:idx], e.queries[idx+1:]...)
	if mem, ok := q.op.(*memberOp); ok {
		g := mem.g
		g.accept.Remove(mem.id)
		for i, m2 := range g.members {
			if m2 == mem {
				g.members = append(g.members[:i], g.members[i+1:]...)
				break
			}
		}
		if len(g.members) == 0 {
			e.removeGroupLocked(g)
		} else {
			g.refreshFinalFilter()
			e.regroupGuardsLocked(g)
		}
	} else {
		e.removeReadersLocked(q)
	}
	if q.quarantined {
		e.nquarantined--
	}
	if q.targetIsTable {
		e.tableWriters--
	}
	e.recomputeSensitiveLocked()
	return nil
}

func (e *Engine) removeGroupLocked(g *mergeGroup) {
	e.removeReadersLocked(g.q)
	for i, g2 := range e.groups {
		if g2 == g {
			e.groups = append(e.groups[:i], e.groups[i+1:]...)
			break
		}
	}
}

func (e *Engine) removeReadersLocked(q *Query) {
	for _, key := range q.reads {
		si := e.streams[key]
		kept := si.readers[:0]
		for _, rd := range si.readers {
			if rd.q != q {
				kept = append(kept, rd)
			}
		}
		// Clear the tail so dropped readers don't pin their queries.
		for i := len(kept); i < len(si.readers); i++ {
			si.readers[i] = reader{}
		}
		si.readers = kept
		si.route = buildRouteTable(si.readers)
	}
}

func (e *Engine) recomputeSensitiveLocked() {
	e.sensitive = false
	for _, q := range e.queries {
		if q.op.timeSensitive() {
			e.sensitive = true
			return
		}
	}
}

// ---- reporting -------------------------------------------------------------

// MergeReport describes the live shared-automaton groups for operators: one
// line per group with its tier and members, singletons included.
func (e *Engine) MergeReport() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.groups) == 0 {
		return "no merged groups (no eligible SEQ queries registered)\n"
	}
	var b strings.Builder
	for _, g := range e.groups {
		names := make([]string, 0, len(g.members))
		for _, mem := range g.members {
			names = append(names, mem.ev.q.describe())
		}
		fmt.Fprintf(&b, "group %d [%s tier] %d member(s): %s\n",
			g.id, g.tier, len(g.members), strings.Join(names, ", "))
		fmt.Fprintf(&b, "  shared automaton: %d steps, %d live runs, state %d tuples\n",
			len(g.def.Steps), g.seq.RunCount(), g.seq.StateSize())
	}
	return b.String()
}

// mergeGroupFor finds the live group a spec-compatible query would join —
// EXPLAIN uses it to report sharing without registering.
func (e *Engine) mergeGroupForLocked(spec *mergeSpec) *mergeGroup {
	for _, g := range e.groups {
		if g.q.quarantined {
			continue
		}
		if spec.prefixSafe && g.tier == tierPrefix && g.sig == spec.prefixSig {
			return g
		}
		if !spec.prefixSafe && g.tier == tierIdentical && g.sig == spec.fullSig && g.virgin {
			return g
		}
	}
	return nil
}
