package esl

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/stream"
	"repro/internal/window"
)

// Durability (ties into internal/snapshot): Checkpoint serializes every
// registered query's mutable state — matcher runs, window buffers, group
// accumulators, deferred outers — plus the ingest boundary, stream counters,
// and the table store. Snapshots carry data only, never plans: Restore
// targets a fresh engine whose DDL and queries were re-executed identically,
// and every section is verified against the live shape (ErrStateMismatch on
// disagreement). Pairing a snapshot with the event journal (WithJournal)
// gives crash recovery: Recover loads the newest valid snapshot and replays
// the journal suffix past its cut point.

// opKind discriminates the continuous-query plan shapes in a snapshot.
const (
	opKindFilterProject = 1
	opKindAggregate     = 2
	opKindEvent         = 3
	opKindMergedMember  = 4
)

func opKindOf(op queryOp) (uint64, bool) {
	switch op.(type) {
	case *filterProjectOp:
		return opKindFilterProject, true
	case *aggregateOp:
		return opKindAggregate, true
	case *eventOp:
		return opKindEvent, true
	case *memberOp:
		return opKindMergedMember, true
	}
	return 0, false
}

// opState is implemented by every continuous-query plan: serialize the
// mutable run-time state, excluding anything rebuilt at compile time.
type opState interface {
	saveOpState(enc *snapshot.Encoder) error
	loadOpState(dec *snapshot.Decoder) error
}

// --- accumulators ---

// accState is implemented by the built-in accumulators and SQL-bodied UDAs.
// Go-registered UDAs with hidden state cannot be serialized and surface
// ErrUnsupportedState at checkpoint time.
type accState interface {
	saveAccState(enc *snapshot.Encoder)
	loadAccState(dec *snapshot.Decoder) error
}

func saveAcc(enc *snapshot.Encoder, acc Accumulator) error {
	s, ok := acc.(accState)
	if !ok {
		return fmt.Errorf("%w: accumulator %T cannot be checkpointed", snapshot.ErrUnsupportedState, acc)
	}
	s.saveAccState(enc)
	return nil
}

func loadAcc(dec *snapshot.Decoder, acc Accumulator) error {
	s, ok := acc.(accState)
	if !ok {
		return fmt.Errorf("%w: accumulator %T cannot be restored", snapshot.ErrUnsupportedState, acc)
	}
	return s.loadAccState(dec)
}

func (a *countAcc) saveAccState(enc *snapshot.Encoder) { enc.Varint(a.n) }
func (a *countAcc) loadAccState(dec *snapshot.Decoder) error {
	n, err := dec.Varint()
	a.n = n
	return err
}

func (a *sumAcc) saveAccState(enc *snapshot.Encoder) {
	enc.Varint(a.i)
	enc.Float(a.f)
	enc.Bool(a.isFloat)
	enc.Varint(a.n)
}

func (a *sumAcc) loadAccState(dec *snapshot.Decoder) error {
	var err error
	if a.i, err = dec.Varint(); err != nil {
		return err
	}
	if a.f, err = dec.Float(); err != nil {
		return err
	}
	if a.isFloat, err = dec.Bool(); err != nil {
		return err
	}
	a.n, err = dec.Varint()
	return err
}

func (a *avgAcc) saveAccState(enc *snapshot.Encoder)       { a.sum.saveAccState(enc) }
func (a *avgAcc) loadAccState(dec *snapshot.Decoder) error { return a.sum.loadAccState(dec) }

// minmaxAcc's multiset is written in (hash, position) order so the same
// contents always produce the same bytes regardless of removal history, and
// re-checkpointing a restored accumulator reproduces the snapshot exactly
// (the sort is stable, and a freshly loaded slice is already in sorted
// order).
func (a *minmaxAcc) saveAccState(enc *snapshot.Encoder) {
	refs := make([]mmEntry, len(a.entries))
	copy(refs, a.entries)
	sort.SliceStable(refs, func(x, y int) bool { return refs[x].h < refs[y].h })
	enc.Bool(a.entries != nil)
	enc.Uvarint(uint64(len(refs)))
	for _, r := range refs {
		enc.Value(r.v)
		enc.Int(r.n)
	}
}

func (a *minmaxAcc) loadAccState(dec *snapshot.Decoder) error {
	has, err := dec.Bool()
	if err != nil {
		return err
	}
	a.entries = nil
	if has {
		a.entries = []mmEntry{}
	}
	n, err := dec.Len()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		v, err := dec.Value()
		if err != nil {
			return err
		}
		c, err := dec.Int()
		if err != nil {
			return err
		}
		if a.entries == nil {
			return snapshot.Corruptf("min/max entries on a nil multiset")
		}
		h := v.Hash()
		if c < 1 {
			return snapshot.Corruptf("min/max count %d", c)
		}
		for j := len(a.entries) - 1; j >= 0 && a.entries[j].h >= h; j-- {
			if a.entries[j].h > h || a.entries[j].v.Equal(v) {
				return snapshot.Corruptf("min/max entry %s out of order or repeated", v)
			}
		}
		a.entries = append(a.entries, mmEntry{h: h, v: v, n: c})
	}
	return nil
}

// udaAccum's state is its per-instance scratch tables.
func (a *udaAccum) saveAccState(enc *snapshot.Encoder) {
	enc.Bool(a.started)
	names := make([]string, 0, len(a.tables))
	for n := range a.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	enc.Uvarint(uint64(len(names)))
	for _, n := range names {
		enc.String(n)
		a.tables[n].Save(enc)
	}
}

func (a *udaAccum) loadAccState(dec *snapshot.Decoder) error {
	started, err := dec.Bool()
	if err != nil {
		return err
	}
	a.started = started
	n, err := dec.Len()
	if err != nil {
		return err
	}
	if n != len(a.tables) {
		return snapshot.Mismatchf("UDA %s has %d state tables, snapshot has %d",
			a.def.decl.Name, len(a.tables), n)
	}
	for i := 0; i < n; i++ {
		name, err := dec.String()
		if err != nil {
			return err
		}
		tbl, ok := a.tables[name]
		if !ok {
			return snapshot.Mismatchf("UDA %s has no state table %s", a.def.decl.Name, name)
		}
		if err := tbl.Load(dec); err != nil {
			return err
		}
	}
	return nil
}

// --- group tables ---

// save writes the table's entries in (hash, chain position) order, so the
// same contents always give the same bytes and a loaded table re-saves
// identically, and numbers each entry's ord; body writes what an entry
// carries beyond its key and count.
func (t *groupTable) save(enc *snapshot.Encoder, body func(*group) error) error {
	hs := make([]uint64, 0, len(t.buckets))
	for h := range t.buckets {
		hs = append(hs, h)
	}
	slices.Sort(hs)
	enc.Uvarint(uint64(t.n))
	ord := 0
	for _, h := range hs {
		for _, g := range t.buckets[h] {
			g.ord = ord
			ord++
			enc.Values(g.key)
			enc.Int(g.n)
			if body != nil {
				if err := body(g); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// load replaces the table's entries with saved ones and returns them in
// saved order. Keys must come in save order and appear once, and every
// count must be at least min; body reads the rest of each entry.
func (t *groupTable) load(dec *snapshot.Decoder, min int, body func(*group) error) ([]*group, error) {
	n, err := dec.Len()
	if err != nil {
		return nil, err
	}
	*t = groupTable{}
	out := make([]*group, 0, n)
	var last uint64
	for i := 0; i < n; i++ {
		key, err := dec.Values()
		if err != nil {
			return nil, err
		}
		c, err := dec.Int()
		if err != nil {
			return nil, err
		}
		if c < min {
			return nil, snapshot.Corruptf("group count %d below %d", c, min)
		}
		h := hashRow(key)
		if h < last {
			return nil, snapshot.Corruptf("group key %v out of hash order", key)
		}
		last = h
		g, fresh := t.getHashed(h, key)
		if !fresh {
			return nil, snapshot.Corruptf("duplicate group key %v", key)
		}
		g.n = c
		if body != nil {
			if err := body(g); err != nil {
				return nil, err
			}
		}
		out = append(out, g)
	}
	return out, nil
}

func (s *outputStage) save(enc *snapshot.Encoder) error {
	enc.Int(s.emitted)
	return s.seen.save(enc, nil)
}

func (s *outputStage) load(dec *snapshot.Decoder) error {
	var err error
	if s.emitted, err = dec.Int(); err != nil {
		return err
	}
	_, err = s.seen.load(dec, 1, nil)
	return err
}

// --- filter/project ---

func (op *filterProjectOp) saveOpState(enc *snapshot.Encoder) error {
	if err := op.out.save(enc); err != nil {
		return err
	}
	enc.Uvarint(uint64(len(op.pending)))
	for _, p := range op.pending {
		enc.Tuple(p.t)
		enc.TS(p.deadline)
	}
	enc.Uvarint(uint64(len(op.exists)))
	for _, ex := range op.exists {
		ex.buffer.Save(enc, (*snapshot.Encoder).Tuple)
	}
	return nil
}

func (op *filterProjectOp) loadOpState(dec *snapshot.Decoder) error {
	if err := op.out.load(dec); err != nil {
		return err
	}
	np, err := dec.Len()
	if err != nil {
		return err
	}
	op.pending = nil
	for i := 0; i < np; i++ {
		t, err := dec.Tuple()
		if err != nil {
			return err
		}
		if t == nil {
			return snapshot.Corruptf("nil deferred outer tuple")
		}
		dl, err := dec.TS()
		if err != nil {
			return err
		}
		op.pending = append(op.pending, pendingOuter{t: t, deadline: dl})
	}
	ne, err := dec.Len()
	if err != nil {
		return err
	}
	if ne != len(op.exists) {
		return snapshot.Mismatchf("query has %d EXISTS buffers, snapshot has %d", len(op.exists), ne)
	}
	for _, ex := range op.exists {
		if err := ex.buffer.Load(dec, window.LoadTuple); err != nil {
			return err
		}
	}
	return nil
}

// --- aggregate ---
//
// Groups (key, count, accumulators, DISTINCT multisets), the output stage,
// then for a window its rows oldest first: timestamp, group ord, argument
// values.

func (op *aggregateOp) saveOpState(enc *snapshot.Encoder) error {
	err := op.groups.save(enc, func(g *group) error {
		for i, acc := range g.accs {
			if err := saveAcc(enc, acc); err != nil {
				return err
			}
			if op.aggs[i].distinct {
				if err := g.distinct[i].save(enc, nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := op.out.save(enc); err != nil || op.win == nil {
		return err
	}
	op.fifo.Save(enc, func(enc *snapshot.Encoder, ent winEntry) {
		enc.TS(ent.ts)
		enc.Uvarint(uint64(ent.group.ord))
		for _, args := range ent.args {
			enc.Values(args)
		}
	})
	return nil
}

func (op *aggregateOp) loadOpState(dec *snapshot.Decoder) error {
	// Every cumulative group holds a row; a windowed group whose rows have
	// all left the window stays, at count 0.
	minCount := 1
	if op.win != nil {
		minCount = 0
	}
	groups, err := op.groups.load(dec, minCount, func(g *group) error {
		op.initGroup(g)
		for i, acc := range g.accs {
			if err := loadAcc(dec, acc); err != nil {
				return err
			}
			if op.aggs[i].distinct {
				if _, err := g.distinct[i].load(dec, 1, nil); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := op.out.load(dec); err != nil || op.win == nil {
		return err
	}
	err = op.fifo.Load(dec, func(dec *snapshot.Decoder) (winEntry, error) {
		ent := winEntry{args: make([][]stream.Value, len(op.aggs))}
		var err error
		if ent.ts, err = dec.TS(); err != nil {
			return ent, err
		}
		gi, err := dec.Uvarint()
		if err != nil {
			return ent, err
		}
		if gi >= uint64(len(groups)) {
			return ent, snapshot.Corruptf("window row references group %d of %d", gi, len(groups))
		}
		ent.group = groups[gi]
		for ai, s := range op.aggs {
			if ent.args[ai], err = dec.Values(); err != nil {
				return ent, err
			}
			if len(ent.args[ai]) != len(s.args) {
				return ent, snapshot.Corruptf("window row has %d arguments for a %d-argument aggregate", len(ent.args[ai]), len(s.args))
			}
		}
		return ent, nil
	})
	if err == nil && op.win.Rows && op.fifo.Len() > op.win.NRows {
		err = snapshot.Corruptf("ROWS %d window holds %d rows", op.win.NRows, op.fifo.Len())
	}
	return err
}

// --- event (SEQ / EXCEPTION_SEQ / CLEVEL_SEQ) ---

func (op *eventOp) saveOpState(enc *snapshot.Encoder) error {
	enc.Bool(op.exceptional())
	op.seq.Save(enc)
	return nil
}

func (op *eventOp) loadOpState(dec *snapshot.Decoder) error {
	exc, err := dec.Bool()
	if err != nil {
		return err
	}
	if exc != op.exceptional() {
		return snapshot.Mismatchf("query %s: exception-automaton snapshot mismatch", op.kindName)
	}
	return op.seq.Load(dec)
}

// --- merged members ---
//
// A merged member's own state is just its registration fence; the shared
// automaton is serialized once per group in the engine's groups section.

func (op *memberOp) saveOpState(enc *snapshot.Encoder) error {
	enc.Uvarint(op.joinSeq)
	return nil
}

func (op *memberOp) loadOpState(dec *snapshot.Decoder) error {
	js, err := dec.Uvarint()
	if err != nil {
		return err
	}
	// The fence was taken against the snapshotted engine's sequence counter;
	// re-registration on the fresh engine fenced at 0, so re-point the
	// acceptor at the restored value.
	op.joinSeq = js
	op.g.accept.SetMinSeq(op.id, js)
	return nil
}

// --- engine sections ---

// resolverLocked resolves tuple schemas by stream name for the decoder.
func (e *Engine) resolverLocked() snapshot.SchemaResolver {
	return func(name string) (*stream.Schema, bool) {
		si, ok := e.streams[strings.ToLower(name)]
		if !ok {
			return nil, false
		}
		return si.schema, true
	}
}

func (e *Engine) saveStateLocked(enc *snapshot.Encoder) error {
	enc.Uvarint(snapshot.SnapSerial)
	enc.Uvarint(e.dur.LSN())
	enc.TS(e.now)
	enc.Uvarint(e.seq)
	enc.Int(e.nquarantined)
	enc.Bool(e.ingest != nil)
	if e.ingest != nil {
		snapshot.EncodeIngestState(enc, e.ingest.State())
	}
	keys := make([]string, 0, len(e.streams))
	for k := range e.streams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		si := e.streams[k]
		enc.String(k)
		enc.Uvarint(si.ntuples)
		enc.Bool(si.history != nil)
		if si.history != nil {
			si.history.Save(enc, (*snapshot.Encoder).Tuple)
		}
		enc.Uvarint(uint64(len(si.readers)))
		for i := range si.readers {
			enc.Uvarint(si.readers[i].routed)
		}
	}
	enc.Uvarint(uint64(len(e.queries)))
	for _, q := range e.queries {
		enc.String(q.Name)
		kind, ok := opKindOf(q.op)
		if !ok {
			return fmt.Errorf("%w: query %s plan %T cannot be checkpointed",
				snapshot.ErrUnsupportedState, q.describe(), q.op)
		}
		enc.Uvarint(kind)
		enc.Int(q.emitted)
		enc.Bool(q.quarantined)
		if err := q.op.(opState).saveOpState(enc); err != nil {
			return fmt.Errorf("query %s: %w", q.describe(), err)
		}
	}
	enc.Uvarint(uint64(len(e.groups)))
	for _, g := range e.groups {
		enc.Uvarint(uint64(len(g.members)))
		enc.Bool(g.virgin)
		enc.Bool(g.q.quarantined)
		g.seq.Save(enc)
	}
	names := e.store.Names()
	sort.Strings(names)
	enc.Uvarint(uint64(len(names)))
	for _, n := range names {
		tbl, _ := e.store.Get(n)
		enc.String(n)
		tbl.Save(enc)
	}
	// Speculation section (format v4): per-query reconciler state, then each
	// consistency level's arrival gate and shadow replica. The shadow is a
	// full nested engine snapshot — deterministic journal replay across a
	// kill lands it in the identical state, so recovery neither re-asserts
	// under fresh sequence numbers nor re-emits retracted rows as finals.
	enc.Bool(e.spc != nil)
	if e.spc != nil {
		enc.Uvarint(uint64(len(e.spc.qs)))
		for _, sq := range e.spc.qs {
			enc.String(sq.q.Name)
			enc.Uvarint(uint64(sq.level))
			snapshot.EncodeReconcilerState(enc, sq.rec.State())
		}
		enc.Uvarint(uint64(len(e.spc.reps)))
		for _, rep := range e.spc.reps {
			enc.Uvarint(uint64(rep.level))
			snapshot.EncodeGateState(enc, rep.gate.State())
			rep.eng.mu.Lock()
			err := rep.eng.saveStateLocked(enc)
			rep.eng.mu.Unlock()
			if err != nil {
				return fmt.Errorf("%s shadow replica: %w", rep.level, err)
			}
		}
	}
	return nil
}

func (e *Engine) loadStateLocked(dec *snapshot.Decoder) error {
	kind, err := dec.Uvarint()
	if err != nil {
		return err
	}
	if kind != snapshot.SnapSerial {
		return fmt.Errorf("%w: snapshot was written by a sharded engine (kind %d)", snapshot.ErrShardMismatch, kind)
	}
	lsn, err := dec.Uvarint()
	if err != nil {
		return err
	}
	e.dur.SetLSN(lsn)
	if e.now, err = dec.TS(); err != nil {
		return err
	}
	if e.seq, err = dec.Uvarint(); err != nil {
		return err
	}
	if e.nquarantined, err = dec.Int(); err != nil {
		return err
	}
	hasIngest, err := dec.Bool()
	if err != nil {
		return err
	}
	if hasIngest != (e.ingest != nil) {
		return snapshot.Mismatchf("engine ingest boundary=%v, snapshot=%v", e.ingest != nil, hasIngest)
	}
	if hasIngest {
		st, err := snapshot.DecodeIngestState(dec)
		if err != nil {
			return err
		}
		e.ingest.SetState(st)
	}
	ns, err := dec.Len()
	if err != nil {
		return err
	}
	if ns != len(e.streams) {
		return snapshot.Mismatchf("engine has %d streams, snapshot has %d", len(e.streams), ns)
	}
	for i := 0; i < ns; i++ {
		key, err := dec.String()
		if err != nil {
			return err
		}
		si, ok := e.streams[key]
		if !ok {
			return snapshot.Mismatchf("snapshot stream %s is not declared", key)
		}
		if si.ntuples, err = dec.Uvarint(); err != nil {
			return err
		}
		hasHist, err := dec.Bool()
		if err != nil {
			return err
		}
		if hasHist != (si.history != nil) {
			return snapshot.Mismatchf("stream %s history retention=%v, snapshot=%v", key, si.history != nil, hasHist)
		}
		if hasHist {
			if err := si.history.Load(dec, window.LoadTuple); err != nil {
				return err
			}
		}
		nr, err := dec.Len()
		if err != nil {
			return err
		}
		if nr != len(si.readers) {
			return snapshot.Mismatchf("stream %s has %d readers, snapshot has %d", key, len(si.readers), nr)
		}
		for j := 0; j < nr; j++ {
			if si.readers[j].routed, err = dec.Uvarint(); err != nil {
				return err
			}
		}
	}
	nq, err := dec.Len()
	if err != nil {
		return err
	}
	if nq != len(e.queries) {
		return snapshot.Mismatchf("engine has %d queries, snapshot has %d", len(e.queries), nq)
	}
	for _, q := range e.queries {
		name, err := dec.String()
		if err != nil {
			return err
		}
		if name != q.Name {
			return snapshot.Mismatchf("query %q in snapshot, %q registered (order matters)", name, q.Name)
		}
		kind, err := dec.Uvarint()
		if err != nil {
			return err
		}
		want, ok := opKindOf(q.op)
		if !ok {
			return fmt.Errorf("%w: query %s plan %T cannot be restored",
				snapshot.ErrUnsupportedState, q.describe(), q.op)
		}
		if kind != want {
			return snapshot.Mismatchf("query %s compiled to plan kind %d, snapshot has %d", q.describe(), want, kind)
		}
		if q.emitted, err = dec.Int(); err != nil {
			return err
		}
		quar, err := dec.Bool()
		if err != nil {
			return err
		}
		if quar && !q.quarantined {
			q.qErr = fmt.Errorf("esl: query %s quarantined before checkpoint", q.describe())
		}
		q.quarantined = quar
		if err := q.op.(opState).loadOpState(dec); err != nil {
			return fmt.Errorf("query %s: %w", q.describe(), err)
		}
	}
	ng, err := dec.Len()
	if err != nil {
		return err
	}
	if ng != len(e.groups) {
		return snapshot.Mismatchf("engine has %d merged groups, snapshot has %d", len(e.groups), ng)
	}
	for _, g := range e.groups {
		nm, err := dec.Len()
		if err != nil {
			return err
		}
		if nm != len(g.members) {
			return snapshot.Mismatchf("merged group %d has %d members, snapshot has %d", g.id, len(g.members), nm)
		}
		if g.virgin, err = dec.Bool(); err != nil {
			return err
		}
		if g.q.quarantined, err = dec.Bool(); err != nil {
			return err
		}
		if err := g.seq.Load(dec); err != nil {
			return fmt.Errorf("merged group %d: %w", g.id, err)
		}
	}
	nt, err := dec.Len()
	if err != nil {
		return err
	}
	if nt != len(e.store.Names()) {
		return snapshot.Mismatchf("engine has %d tables, snapshot has %d", len(e.store.Names()), nt)
	}
	for i := 0; i < nt; i++ {
		name, err := dec.String()
		if err != nil {
			return err
		}
		tbl, ok := e.store.Get(name)
		if !ok {
			return snapshot.Mismatchf("snapshot table %s is not declared", name)
		}
		if err := tbl.Load(dec); err != nil {
			return err
		}
	}
	// Rebuild the checkpoint-LSN list retention tracks (cutVersionsLocked)
	// from the restored table history: the union of every table's retained
	// cut LSNs, ascending.
	seen := map[uint64]bool{}
	e.ckptLSNs = e.ckptLSNs[:0]
	for _, name := range e.store.Names() {
		tbl, _ := e.store.Get(name)
		for _, vi := range tbl.Versions() {
			if !seen[vi.LSN] {
				seen[vi.LSN] = true
				e.ckptLSNs = append(e.ckptLSNs, vi.LSN)
			}
		}
	}
	sort.Slice(e.ckptLSNs, func(i, j int) bool { return e.ckptLSNs[i] < e.ckptLSNs[j] })
	hasSpec, err := dec.Bool()
	if err != nil {
		return err
	}
	if hasSpec != (e.spc != nil) {
		return snapshot.Mismatchf("engine speculation=%v, snapshot=%v (re-register FAST/MIDDLE queries before Restore)", e.spc != nil, hasSpec)
	}
	if hasSpec {
		nsq, err := dec.Len()
		if err != nil {
			return err
		}
		if nsq != len(e.spc.qs) {
			return snapshot.Mismatchf("engine has %d speculative queries, snapshot has %d", len(e.spc.qs), nsq)
		}
		for _, sq := range e.spc.qs {
			name, err := dec.String()
			if err != nil {
				return err
			}
			if name != sq.q.Name {
				return snapshot.Mismatchf("speculative query %q in snapshot, %q registered (order matters)", name, sq.q.Name)
			}
			lvl, err := dec.Uvarint()
			if err != nil {
				return err
			}
			if spec.Level(lvl) != sq.level {
				return snapshot.Mismatchf("query %s registered %s, snapshot has %s", name, sq.level, spec.Level(lvl))
			}
			rst, err := snapshot.DecodeReconcilerState(dec)
			if err != nil {
				return err
			}
			sq.rec.SetState(rst)
		}
		nrep, err := dec.Len()
		if err != nil {
			return err
		}
		if nrep != len(e.spc.reps) {
			return snapshot.Mismatchf("engine has %d shadow replicas, snapshot has %d", len(e.spc.reps), nrep)
		}
		for _, rep := range e.spc.reps {
			lvl, err := dec.Uvarint()
			if err != nil {
				return err
			}
			if spec.Level(lvl) != rep.level {
				return snapshot.Mismatchf("shadow replica level %s, snapshot has %s", rep.level, spec.Level(lvl))
			}
			gst, err := snapshot.DecodeGateState(dec)
			if err != nil {
				return err
			}
			rep.gate.SetState(gst)
			rep.eng.mu.Lock()
			err = rep.eng.loadStateLocked(dec)
			rep.eng.mu.Unlock()
			if err != nil {
				return fmt.Errorf("%s shadow replica: %w", rep.level, err)
			}
		}
	}
	return nil
}

// Checkpoint writes a self-describing snapshot of all mutable engine state
// to w. The engine is quiescent for the duration (the engine lock is held).
// The snapshot carries data, not plans: restore it into an engine whose
// streams, tables, and queries were re-created identically.
func (e *Engine) Checkpoint(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dur.Checkpoint(w)
}

// Restore replaces the engine's mutable state with a snapshot written by
// Checkpoint. The engine must have the same shape — same streams, tables,
// and queries registered in the same order — or ErrStateMismatch is
// returned. Corrupt or truncated input returns ErrCorrupt/ErrTruncated
// without panicking; state is undefined after a failed restore.
func (e *Engine) Restore(r io.Reader) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dur.Restore(r)
}

// --- journal + recovery ---

// cutVersionsLocked names the current state of every store table as the
// version at lsn and applies the RetainVersions bound: once more than
// retainVers checkpoints have cut versions, the watermark advances past the
// oldest and unpinned history is released.
func (e *Engine) cutVersionsLocked(lsn uint64) {
	e.store.CutVersions(lsn, e.now)
	for n := len(e.ckptLSNs); n > 0 && e.ckptLSNs[n-1] >= lsn; n = len(e.ckptLSNs) {
		e.ckptLSNs = e.ckptLSNs[:n-1]
	}
	e.ckptLSNs = append(e.ckptLSNs, lsn)
	if e.retainVers > 0 && len(e.ckptLSNs) > e.retainVers {
		drop := len(e.ckptLSNs) - e.retainVers
		e.store.ReleaseBefore(e.ckptLSNs[drop])
		e.ckptLSNs = append(e.ckptLSNs[:0], e.ckptLSNs[drop:]...)
	}
}

// CutVersions moves the engine's log position to lsn and names every
// table's current state as the version at lsn. It is the checkpoint cut for
// a replica whose input a coordinator journals on its behalf (the sharded
// engine's shard 0, home of every table-touching query).
func (e *Engine) CutVersions(lsn uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dur.SetLSN(lsn)
	e.cutVersionsLocked(lsn)
}

// SetLSN moves the log position AS OF anchors resolve against, for a replica
// whose input a coordinator journals on its behalf.
func (e *Engine) SetLSN(lsn uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dur.SetLSN(lsn)
}

// CheckpointNow forces a durable snapshot into the journal directory,
// independent of the CheckpointEvery cadence.
func (e *Engine) CheckpointNow() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dur.CheckpointNow()
}

// LastLSN reports the sequence number of the last journaled (or replayed)
// event record.
func (e *Engine) LastLSN() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dur.LSN()
}

// SyncJournal forces buffered journal records to stable storage (useful
// before a planned handover when the fsync policy is not FsyncAlways).
func (e *Engine) SyncJournal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dur.Sync()
}

// CloseJournal syncs and closes the journal file. Subsequent journaled
// pushes reopen it.
func (e *Engine) CloseJournal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dur.Close()
}

// Recover rebuilds engine state from dir (default: the WithJournal
// directory): load the newest valid snapshot, then replay the journal
// suffix past its cut point. Records at or before the snapshot's LSN are
// skipped, never double-applied. Replay feeds each item back through the
// ingest boundary, so lateness, dedup, and screening decisions — and any
// per-item errors the original run reported — re-manifest deterministically;
// such errors do not abort recovery. Output rows re-emitted during replay
// are exactly those the original run emitted after the snapshot cut.
func (e *Engine) Recover(dir string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshRoutesLocked()
	return e.dur.Recover(dir)
}
