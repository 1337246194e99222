package esl

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/stream"
	"repro/internal/window"
)

// Row is one output row of a continuous or snapshot query.
type Row struct {
	Names []string
	Vals  []stream.Value
	TS    stream.Timestamp
	// idx maps lower-cased column names to positions. The planner builds it
	// once per query projection and shares it across every emitted row, so
	// Get is a map probe instead of an O(columns) case-folding scan. A
	// hand-built Row leaves it nil and falls back to the scan.
	idx map[string]int
	// Speculation record tags (spec.go): pol is the record polarity (Final
	// for strict rows), mseq/mprov the MatchID components. They ride the Row
	// by value through sinks, the sharded combiner, and the cluster wire, so
	// every existing row path carries polarity without separate plumbing.
	pol   spec.Polarity
	mseq  uint64
	mprov uint64
}

// Get returns the value of the named output column.
func (r Row) Get(name string) stream.Value {
	if r.idx != nil {
		if i, ok := r.idx[name]; ok {
			return r.Vals[i]
		}
		if i, ok := r.idx[strings.ToLower(name)]; ok {
			return r.Vals[i]
		}
		return stream.Null
	}
	for i, n := range r.Names {
		if strings.EqualFold(n, name) {
			return r.Vals[i]
		}
	}
	return stream.Null
}

// String renders the row as "name=v, name=v @ts".
func (r Row) String() string {
	var b strings.Builder
	for i, n := range r.Names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", n, r.Vals[i])
	}
	fmt.Fprintf(&b, " @%s", r.TS)
	return b.String()
}

// Engine is the ESL-EV continuous-query engine: it owns stream and table
// declarations, compiled continuous queries, and advances event time as
// tuples and heartbeats arrive. Tuples must be fed in joint-history order
// (use stream.Merger to combine concurrent sources); all processing is
// synchronous and deterministic.
type Engine struct {
	mu      sync.Mutex
	streams map[string]*streamInfo
	store   *db.Store
	funcs   *FuncRegistry
	aggs    *AggRegistry
	queries []*Query
	now     stream.Timestamp
	seq     uint64
	depth   int // derived-stream recursion guard
	// sensitive is set when any registered query is time-sensitive (see
	// queryOp.timeSensitive); it routes PushBatch to the exact per-item path.
	sensitive bool
	// tableWriters counts registered queries whose sink inserts into a store
	// table. While zero, filterProjectOp.pushBatch may pin table versions
	// once per batch (no same-batch write could become visible anyway);
	// otherwise joins re-pin per tuple to keep a query's own inserts visible
	// to later tuples.
	tableWriters int

	// Routing index (route.go). noRoute disables guard attachment (the
	// WithoutRouteIndex escape hatch); routeScratch holds one dispatch
	// buffer per derived-stream recursion depth; subScratch holds the
	// per-reader sub-batch spine reused across routeRunLocked calls.
	noRoute      bool
	routeScratch [][]int
	subScratch   []*stream.Batch
	// routesDirty is set when a registration invalidated routing state
	// (stream route tables, merge-group guard unions). Rebuilding per
	// registration is O(readers) each — O(q^2) to set up q queries — so
	// registration only marks dirty and the next push pays one rebuild per
	// dirty stream (refreshRoutesLocked). Deregistration stays eager where
	// it must: shrinking a reader list strands stale route ordinals.
	routesDirty bool

	// Plan merging (merge.go). groups holds the shared-automaton groups that
	// callback-only SEQ queries join at registration; noMerge disables the
	// layer (the WithoutPlanMerge escape hatch).
	noMerge     bool
	groups      []*mergeGroup
	nextGroupID int

	// Fault tolerance (robust.go). ingest is the slack/lateness/dedup
	// boundary stage, nil on a default-configured engine so the strict path
	// carries no overhead; onDead are the quarantine-stream subscribers;
	// nquarantined counts queries disabled by panic isolation.
	ingest        *stream.Ingest
	ingestScratch []stream.Item
	onDead        []func(stream.DeadLetter)
	nquarantined  int

	// Speculation (spec.go). spc owns the shadow replicas, arrival gates and
	// per-query reconcilers for FAST/MIDDLE queries; nil until the first
	// speculative registration, so strict engines carry no overhead.
	// specSlack remembers the configured reorder slack (the MIDDLE horizon
	// defaults to a fraction of it).
	spc       *speculator
	specSlack time.Duration

	// Durability (snapshot.go): dur journals offered items, keeps the LSN,
	// and runs checkpoints and recovery.
	dur *snapshot.Lifecycle
	// retainVers bounds the named table versions kept for AS OF reads
	// (Config.RetainVersions); ckptLSNs lists the checkpoint LSNs that cut
	// versions, newest last, so retention can find the release watermark.
	retainVers int
	ckptLSNs   []uint64
}

type streamInfo struct {
	schema *stream.Schema
	// readers: continuous queries consuming this stream, with the FROM
	// aliases each one reads it under.
	readers []reader
	// route dispatches tuples to the readers that can react (route.go);
	// registration marks it dirty and the next push rebuilds it once
	// (refreshRoutesLocked). ntuples counts arrivals, so per-query skip
	// counts derive as ntuples - reader.routed.
	route      *routeTable
	routeDirty bool
	ntuples    uint64
	// subscribers receive raw derived tuples (external sinks).
	subscribers []func(*stream.Tuple)
	// retain keeps recent history for ad-hoc snapshot queries.
	retain  time.Duration
	history *window.TimeBuffer
}

type reader struct {
	q       *Query
	aliases []string
	// guard, when non-nil, is the compile-time routing admission test for
	// this edge; tuples it rejects are provably no-ops for the query.
	guard *streamGuard
	// routed counts tuples actually offered to the query from this stream.
	routed uint64
}

// Query is one registered continuous query.
type Query struct {
	Name string
	stmt *Select
	op   queryOp
	// sink receives each output row (wired to a derived stream, a table,
	// or the user's callback).
	sink    func(Row) error
	emitted int
	// Partition-parallel metadata, set at registration: the streams this
	// query reads, its sink target, and whether its results are invariant
	// under key-partitioned input routing (see Shardability).
	reads         []string
	target        string
	targetIsTable bool
	shard         Shardability
	// Panic isolation (robust.go): a query that panics during evaluation is
	// quarantined — it stops receiving input — while the engine keeps going.
	quarantined bool
	qErr        error
	// guards maps lower-cased input stream names to the routing admission
	// tests the planner extracted (route.go); consulted at registration.
	guards map[string]*streamGuard
	// wantProv marks a speculative registration's replica (primary or
	// shadow): SEQ emissions carry the match provenance hash, and the query
	// stays out of merged plan groups (the group emission path does not
	// thread provenance).
	wantProv bool
}

// Shardability reports whether a continuous query's output is invariant
// when its input streams are hash-partitioned by key across independent
// engine replicas, each seeing only its key's tuples (plus heartbeats).
//
// The planner marks a query shardable when it is a keyed SEQ query (the
// solved partition equality class covers every step, and matching is fully
// bind-time checked: windows, gaps and residual predicates all validate on
// the tuple's own timestamps) or a stateless per-tuple filter/projection
// (Keys nil: any placement works). Everything whose outcome depends on the
// global clock or on cross-key state — aggregates, EXCEPTION_SEQ/CLEVEL_SEQ
// timers, ExpireAfter idling, EXISTS windows, table access, DISTINCT,
// LIMIT — is unshardable and must run on a single designated replica.
type Shardability struct {
	Shardable bool
	// Keys maps lower-cased input stream names to the lower-cased partition
	// column the router must hash. Nil on a shardable query means the query
	// is stateless and indifferent to placement.
	Keys map[string]string
}

// Reads returns the lower-cased names of the streams the query consumes
// (FROM sources and EXISTS sub-query sources).
func (q *Query) Reads() []string { return append([]string(nil), q.reads...) }

// Target returns the lower-cased sink name ("" when the query only feeds a
// callback) and whether it is a table rather than a derived stream.
func (q *Query) Target() (name string, isTable bool) { return q.target, q.targetIsTable }

// Shardability reports the planner's routing classification for the query.
func (q *Query) Shardability() Shardability {
	s := q.shard
	if s.Keys != nil {
		keys := make(map[string]string, len(s.Keys))
		for k, v := range s.Keys {
			keys[k] = v
		}
		s.Keys = keys
	}
	return s
}

// Queries returns the registered continuous queries.
func (e *Engine) Queries() []*Query {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Query(nil), e.queries...)
}

// queryOp is a compiled continuous-query runtime.
type queryOp interface {
	// push offers one tuple that arrived on a stream this query reads,
	// with the FROM aliases it is visible under.
	push(aliases []string, t *stream.Tuple) error
	// pushBatch offers a run of consecutive same-stream tuples in
	// joint-history order. Implementations must advance the engine clock
	// (e.now) to each tuple as they process it — the run router defers the
	// global bump to the run boundary — and must reproduce push's per-tuple
	// output exactly.
	pushBatch(aliases []string, b *stream.Batch) error
	// advance moves event time (heartbeats and other streams' arrivals),
	// driving window eviction and active expiration.
	advance(ts stream.Timestamp) error
	// timeSensitive reports whether the op can emit output from the passage
	// of event time alone (deferred FOLLOWING windows, exception timers,
	// idle expiry). Batched ingestion must keep the exact per-item clock for
	// such ops; for all others, advance only trims state that bind-time
	// checks already exclude, so it coalesces to batch boundaries.
	timeSensitive() bool
}

// New builds an empty engine. Options (WithSlack, WithLateness,
// WithMaxTupleBytes, WithExactDedup) enable the fault-tolerant ingest
// boundary; with no options the engine keeps its strict historical behavior
// on the exact same code path.
func New(opts ...Option) *Engine {
	funcs := NewFuncRegistry()
	e := &Engine{
		streams: make(map[string]*streamInfo),
		store:   db.NewStore(),
		funcs:   funcs,
		aggs:    NewAggRegistry(funcs),
	}
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	e.noRoute = cfg.NoRouteIndex
	e.noMerge = cfg.NoPlanMerge
	e.dur = snapshot.NewLifecycle(cfg.JournalDir, cfg.Journal, cfg.CheckpointEvery, snapshot.Hooks{
		Name:    "esl",
		Save:    e.saveStateLocked,
		Load:    e.loadStateLocked,
		Resolve: e.resolverLocked(),
		Apply:   e.offerItemLocked,
		Cut:     e.cutVersionsLocked,
	})
	e.retainVers = cfg.RetainVersions
	if !cfg.Ingest.IsZero() {
		cfg.Ingest.OnDead = e.dispatchDeadLocked
		e.ingest = stream.NewIngest(cfg.Ingest)
		e.specSlack = cfg.Ingest.Slack
	}
	return e
}

// Funcs returns the scalar-function registry (for registering UDFs).
func (e *Engine) Funcs() *FuncRegistry { return e.funcs }

// Aggs returns the aggregate registry (for registering Go UDAs).
func (e *Engine) Aggs() *AggRegistry { return e.aggs }

// Store returns the persistent table store.
func (e *Engine) Store() *db.Store { return e.store }

// Now returns the engine's current event time.
func (e *Engine) Now() stream.Timestamp {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// CreateStream declares a stream.
func (e *Engine) CreateStream(name string, cols ...stream.Field) (*stream.Schema, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.createStreamLocked(name, cols)
}

func (e *Engine) createStreamLocked(name string, cols []stream.Field) (*stream.Schema, error) {
	key := strings.ToLower(name)
	if _, dup := e.streams[key]; dup {
		return nil, fmt.Errorf("esl: stream %s already exists", name)
	}
	if _, dup := e.store.Get(name); dup {
		return nil, fmt.Errorf("esl: %s already exists as a table", name)
	}
	schema, err := stream.NewSchema(name, cols...)
	if err != nil {
		return nil, err
	}
	e.streams[key] = &streamInfo{schema: schema}
	return schema, nil
}

// StreamSchema returns a declared stream's schema.
func (e *Engine) StreamSchema(name string) (*stream.Schema, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	si, ok := e.streams[strings.ToLower(name)]
	if !ok {
		return nil, false
	}
	return si.schema, true
}

// RetainHistory keeps d of recent history on the stream so ad-hoc snapshot
// queries can read it (the paper's "current status" inquiries without
// persistent storage).
func (e *Engine) RetainHistory(name string, d time.Duration) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	si, ok := e.streams[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("esl: unknown stream %s", name)
	}
	si.retain = d
	if si.history == nil {
		si.history = &window.TimeBuffer{}
	}
	return nil
}

// Subscribe registers a callback invoked for every tuple that enters the
// named stream (source or derived).
func (e *Engine) Subscribe(name string, fn func(*stream.Tuple)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	si, ok := e.streams[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("esl: unknown stream %s", name)
	}
	si.subscribers = append(si.subscribers, fn)
	return nil
}

// Exec parses and applies a script: DDL statements take effect, CREATE
// AGGREGATE registers UDAs, and INSERT INTO ... SELECT with stream sources
// registers continuous queries. It returns the registered queries.
func (e *Engine) Exec(script string) ([]*Query, error) {
	stmts, err := Parse(script)
	if err != nil {
		return nil, err
	}
	var queries []*Query
	for _, s := range stmts {
		q, err := e.execStatement(s)
		if err != nil {
			return queries, err
		}
		if q != nil {
			queries = append(queries, q)
		}
	}
	return queries, nil
}

func (e *Engine) execStatement(s Statement) (*Query, error) {
	switch st := s.(type) {
	case *CreateStream:
		fields := colFields(st.Cols)
		_, err := e.CreateStream(st.Name, fields...)
		return nil, err

	case *CreateTable:
		schema, err := stream.NewSchema(st.Name, colFields(st.Cols)...)
		if err != nil {
			return nil, err
		}
		if _, exists := e.streams[strings.ToLower(st.Name)]; exists {
			return nil, fmt.Errorf("esl: %s already exists as a stream", st.Name)
		}
		_, err = e.store.Create(schema)
		return nil, err

	case *CreateIndex:
		tbl, ok := e.store.Get(st.Table)
		if !ok {
			return nil, fmt.Errorf("esl: unknown table %s", st.Table)
		}
		return nil, tbl.CreateIndex(st.Column)

	case *CreateAggregate:
		factory, err := compileUDA(st, e.funcs)
		if err != nil {
			return nil, err
		}
		e.aggs.Register(st.Name, factory)
		return nil, nil

	case *InsertValues:
		tbl, ok := e.store.Get(st.Target)
		if !ok {
			return nil, fmt.Errorf("esl: INSERT VALUES target %s is not a table", st.Target)
		}
		sc := newScope(e.funcs)
		f := getFrame(0, nil)
		defer putFrame(f)
		for _, rowExprs := range st.Rows {
			fns, err := compileList(rowExprs, sc)
			if err != nil {
				return nil, err
			}
			row, err := evalList(fns, f)
			if err != nil {
				return nil, err
			}
			if _, err := tbl.Insert(row); err != nil {
				return nil, err
			}
		}
		return nil, nil

	case *UpdateStmt, *DeleteStmt:
		return nil, e.execTableDML(s)

	case *InsertSelect:
		if e.selectReadsStream(st.Sel) {
			if st.Sel.Consistency != spec.Strict {
				// Route through the speculation-aware path: it degrades to
				// strict without a reorder boundary and rejects derived-sink
				// speculation with a precise error.
				return e.registerQueryParsed("", st.Target, st.Sel, nil)
			}
			return e.registerContinuous(st.Target, st.Sel, nil, spec.Strict)
		}
		// Table-only source: run once now.
		rows, err := e.snapshotSelect(st.Sel)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		sink, err := e.sinkFor(st.Target, st.Sel)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := sink(r); err != nil {
				return nil, err
			}
		}
		return nil, nil

	case *Select:
		if e.selectReadsStream(st) {
			if st.Consistency != spec.Strict {
				// A script-registered speculative query has no callback, but
				// the full reconciliation machinery still runs: SpecStats and
				// EngineStats expose its assertion/retraction counters.
				return e.registerQueryParsed("", "", st, nil)
			}
			return e.registerContinuous("", st, func(Row) error { return nil }, spec.Strict)
		}
		return nil, fmt.Errorf("esl: table-only SELECT in a script has no destination; use Engine.Query")

	default:
		return nil, fmt.Errorf("esl: unsupported statement %T", s)
	}
}

// execTableDML runs an UPDATE or DELETE against a store table through the
// compiler UDA bodies use.
func (e *Engine) execTableDML(s Statement) error {
	schemaOf := func(name string) (*stream.Schema, error) {
		tbl, ok := e.store.Get(name)
		if !ok {
			return nil, fmt.Errorf("esl: unknown table %s", name)
		}
		return tbl.Schema(), nil
	}
	st, err := compileTableStmt(s, schemaOf, nil, e.funcs)
	if err != nil {
		return err
	}
	_, err = st(func(name string) *db.Table {
		tbl, _ := e.store.Get(name)
		return tbl
	}, nil)
	return err
}

func colFields(cols []ColDef) []stream.Field {
	fields := make([]stream.Field, len(cols))
	for i, c := range cols {
		fields[i] = stream.Field{Name: c.Name, Type: c.Type}
	}
	return fields
}

// selectReadsStream reports whether any FROM source is a declared stream.
func (e *Engine) selectReadsStream(sel *Select) bool {
	for _, f := range sel.From {
		if _, ok := e.streams[strings.ToLower(f.Source)]; ok {
			return true
		}
	}
	return false
}

// RegisterQuery compiles a continuous SELECT and routes its rows to onRow.
// A trailing CONSISTENCY clause in the SQL selects the speculation level
// (see RegisterQueryOpts).
func (e *Engine) RegisterQuery(name, sql string, onRow func(Row)) (*Query, error) {
	return e.RegisterQueryOpts(name, sql, onRow)
}

// registerContinuous compiles and wires a continuous query. extraSink, when
// non-nil, also receives every row (in addition to the target). lvl marks
// the query as a replica of a speculative registration (primary or shadow):
// such queries skip plan merging and tag emitted rows with match provenance;
// the reconciliation wiring itself lives in RegisterQueryOpts.
func (e *Engine) registerContinuous(target string, sel *Select, extraSink func(Row) error, lvl spec.Level) (*Query, error) {
	if sel.Consistency != spec.Strict && lvl == spec.Strict {
		return nil, fmt.Errorf("esl: CONSISTENCY %s requires RegisterQuery (a script statement has no record sink)", sel.Consistency)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	q := &Query{stmt: sel, wantProv: lvl != spec.Strict}
	targetSink := func(Row) error { return nil }
	if target != "" {
		var err error
		targetSink, err = e.sinkFor(target, sel)
		if err != nil {
			return nil, err
		}
	}
	q.sink = func(r Row) error {
		q.emitted++
		if err := targetSink(r); err != nil {
			return err
		}
		if extraSink != nil {
			return extraSink(r)
		}
		return nil
	}
	op, inputs, err := e.compile(sel, q)
	if err != nil {
		return nil, err
	}
	q.op = op
	// Plan merging: an eligible callback-only SEQ query joins a shared
	// automaton group instead of wiring its own matcher into the stream
	// readers. Derived-sink queries stay independent (their emissions re-enter
	// the engine mid-push, which the group's deferred attribution would
	// reorder).
	if ev, ok := op.(*eventOp); ok && !e.noMerge && target == "" && !q.wantProv &&
		ev.merge != nil && ev.merge.eligible {
		mem, err := e.joinGroupLocked(ev, q, inputs)
		if err != nil {
			return nil, err
		}
		q.op = mem
		q.reads = append([]string(nil), mem.g.q.reads...)
		e.queries = append(e.queries, q)
		if mem.timeSensitive() {
			e.sensitive = true
		}
		return q, nil
	}
	for streamName, aliases := range inputs {
		key := strings.ToLower(streamName)
		si := e.streams[key]
		rd := reader{q: q, aliases: aliases}
		if !e.noRoute {
			rd.guard = q.guards[key]
		}
		si.readers = append(si.readers, rd)
		si.routeDirty = true
		e.routesDirty = true
		q.reads = append(q.reads, key)
	}
	sort.Strings(q.reads)
	if target != "" {
		q.target = strings.ToLower(target)
		if _, isTable := e.store.Get(target); isTable {
			q.targetIsTable = true
			e.tableWriters++
			// Stream->DB updates mutate one shared table; replicas would
			// each apply the update, so the query must stay on one engine.
			q.shard = Shardability{}
		}
	}
	e.queries = append(e.queries, q)
	if op.timeSensitive() {
		e.sensitive = true
	}
	return q, nil
}

// TimeSensitive reports whether any registered query can emit output from
// the passage of event time alone (FOLLOWING-window deferrals, exception
// timers, idle expiry). Such engines need heartbeats delivered at their
// exact per-item positions; for the rest, batched ingestion coalesces clock
// and eviction work to run boundaries.
func (e *Engine) TimeSensitive() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sensitive
}

// sinkFor wires query output to a derived stream or a table. An undeclared
// target becomes a new derived stream whose schema is inferred from the
// projection.
func (e *Engine) sinkFor(target string, sel *Select) (func(Row) error, error) {
	if tbl, ok := e.store.Get(target); ok {
		return func(r Row) error {
			_, err := tbl.Insert(r.Vals)
			return err
		}, nil
	}
	key := strings.ToLower(target)
	si, ok := e.streams[key]
	if !ok {
		// Auto-declare the derived stream from the projection names.
		names, err := e.projectionNames(sel)
		if err != nil {
			return nil, fmt.Errorf("esl: cannot infer schema for derived stream %s: %v", target, err)
		}
		fields := make([]stream.Field, len(names))
		for i, n := range names {
			fields[i] = stream.Field{Name: n}
		}
		schema, err := stream.NewSchema(target, fields...)
		if err != nil {
			return nil, err
		}
		si = &streamInfo{schema: schema}
		e.streams[key] = si
	}
	return func(r Row) error {
		if len(r.Vals) != si.schema.Len() {
			return fmt.Errorf("esl: stream %s expects %d columns, query produced %d",
				target, si.schema.Len(), len(r.Vals))
		}
		t, err := stream.NewTuple(si.schema, r.TS, append([]stream.Value(nil), r.Vals...)...)
		if err != nil {
			return err
		}
		// Deferred decisions (FOLLOWING windows) produce rows whose logical
		// time predates the watermark; the derived tuple is stamped at
		// emission time so downstream event-time order holds, while its
		// column values keep the original reading times.
		if t.TS < e.now {
			t.TS = e.now
		}
		return e.routeLocked(si, t)
	}, nil
}

// Push appends one tuple to a source stream and processes it through every
// continuous query. vals must match the stream's schema.
func (e *Engine) Push(streamName string, ts stream.Timestamp, vals ...stream.Value) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshRoutesLocked()
	si, ok := e.streams[strings.ToLower(streamName)]
	if !ok {
		return fmt.Errorf("esl: unknown stream %s", streamName)
	}
	t, err := stream.NewTuple(si.schema, ts, vals...)
	if err != nil {
		if e.ingest != nil {
			// Malformed rows are part of the fault model: quarantine instead
			// of erroring when a dead-letter route is configured.
			e.ingest.DeadLetterNow(stream.DeadLetter{
				Reason: stream.DeadMalformed, Stream: si.schema.Name(), TS: ts, Err: err,
			})
			return nil
		}
		return err
	}
	return e.pushOneLocked(si, t)
}

// pushOneLocked is the shared single-tuple tail of Push and PushTuple.
func (e *Engine) pushOneLocked(si *streamInfo, t *stream.Tuple) error {
	return e.dur.Offer([]stream.Item{stream.Of(t)}, func(it stream.Item) error {
		if e.ingest != nil {
			return e.offerLocked(it)
		}
		return e.routeLocked(si, it.Tuple)
	})
}

// PushBatch processes a run of merged items — tuples and heartbeats in
// joint-history (non-decreasing timestamp) order — under one lock
// acquisition. Tuples are routed to the stream named by their schema;
// heartbeats advance event time. This is the amortized ingestion path for
// high-volume feeds: when no registered query is time-sensitive, runs of
// consecutive same-stream tuples flow through the readers' vectorized batch
// kernels with clock, heartbeat and eviction work coalesced to run
// boundaries; otherwise every item is processed at its exact position.
// Journaled engines and engines with an ingest boundary offer item by item,
// so on a mid-batch rejection the journal holds exactly the offered items.
func (e *Engine) PushBatch(items []stream.Item) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshRoutesLocked()
	switch {
	case e.ingest != nil || e.dur.Journaling():
		return e.dur.Offer(items, e.offerItemLocked)
	case e.sensitive:
		return e.pushItemsExactLocked(items)
	default:
		return e.pushItemsBatchedLocked(items)
	}
}

// offerItemLocked admits one item: through the ingest boundary when one is
// configured, else at its exact position on the per-item path.
func (e *Engine) offerItemLocked(it stream.Item) error {
	if e.ingest != nil {
		return e.offerLocked(it)
	}
	return e.pushItemsExactLocked([]stream.Item{it})
}

// pushItemsExactLocked replays the per-item ingestion path: each tuple and
// heartbeat is processed at its exact position, preserving every clock
// observation for time-sensitive queries.
func (e *Engine) pushItemsExactLocked(items []stream.Item) error {
	var (
		lastSchema *stream.Schema
		lastInfo   *streamInfo
	)
	for _, it := range items {
		if it.IsHeartbeat() {
			if it.TS > e.now {
				e.now = it.TS
			}
			if err := e.advanceLocked(e.now); err != nil {
				return err
			}
			continue
		}
		si := lastInfo
		if it.Tuple.Schema != lastSchema {
			var ok bool
			si, ok = e.streams[strings.ToLower(it.Tuple.Schema.Name())]
			if !ok {
				return fmt.Errorf("esl: unknown stream %s", it.Tuple.Schema.Name())
			}
			lastSchema, lastInfo = it.Tuple.Schema, si
		}
		if err := e.routeLocked(si, it.Tuple); err != nil {
			return err
		}
	}
	return nil
}

// pushItemsBatchedLocked is the vectorized ingestion path, used when no
// registered query is time-sensitive: consecutive same-stream tuples form
// runs handed to the readers' batch kernels, and the per-tuple trailing
// advance — eviction only, for these engines — collapses into one advance
// at the batch boundary (the matchers evict internally at each tuple's
// timestamp, so only the trailing sweep is deferrable). Heartbeats advance
// at their exact position: heartbeat-time eviction prunes expired runs
// BEFORE the next tuple can bind into them, which changes which matches
// form — deferring it is observable, not just a memory detail.
func (e *Engine) pushItemsBatchedLocked(items []stream.Item) error {
	dirty := false
	i := 0
	for i < len(items) {
		it := items[i]
		if it.IsHeartbeat() {
			if it.TS > e.now {
				e.now = it.TS
			}
			dirty = false
			if err := e.advanceLocked(e.now); err != nil {
				return err
			}
			i++
			continue
		}
		schema := it.Tuple.Schema
		si, ok := e.streams[strings.ToLower(schema.Name())]
		if !ok {
			if dirty {
				_ = e.advanceLocked(e.now)
			}
			return fmt.Errorf("esl: unknown stream %s", schema.Name())
		}
		j := i + 1
		for j < len(items) && items[j].Tuple != nil && items[j].Tuple.Schema == schema {
			j++
		}
		dirty = true
		if err := e.routeRunLocked(si, items[i:j]); err != nil {
			// Items before the failure were fully processed; fold their
			// deferred trailing advance in before surfacing the error so
			// state matches the per-item path.
			_ = e.advanceLocked(e.now)
			return err
		}
		i = j
	}
	if dirty {
		return e.advanceLocked(e.now)
	}
	return nil
}

// routeRunLocked delivers a run of consecutive same-stream tuples. It
// reproduces routeLocked per tuple — order check, sequence stamping,
// history retention, subscriber notification, reader delivery — but
// amortizes what per-tuple routing repeats: history eviction and the
// cross-query advance move to the run boundary, and eligible runs reach
// each reader as one batch.
func (e *Engine) routeRunLocked(si *streamInfo, items []stream.Item) error {
	// Validate joint-history order up front, truncating the run at the
	// first violation: the in-order prefix is processed exactly as the
	// per-item path would have before it surfaced the same error.
	n := len(items)
	var orderErr error
	maxTS := e.now
	for k, it := range items {
		if it.Tuple.TS < maxTS {
			orderErr = fmt.Errorf("esl: out-of-order arrival on %s: %s is before engine time %s (merge concurrent sources with stream.Merger and per-source slack)",
				si.schema.Name(), it.Tuple.TS, maxTS)
			n = k
			break
		}
		if it.Tuple.TS > maxTS {
			maxTS = it.Tuple.TS
		}
	}
	items = items[:n]
	if len(items) == 0 {
		return orderErr
	}

	// Routing dispatch: when any reader is guarded, pre-compute each guarded
	// reader's admitted sub-run. Unguarded (fallback) readers see the whole
	// run; guarded readers with an empty sub-run are not delivered at all.
	rt := si.route
	guarded := rt != nil && rt.nGuarded > 0
	var subs []*stream.Batch
	if guarded {
		subs = e.subScratch[:0]
		for range si.readers {
			subs = append(subs, nil)
		}
		e.subScratch = subs[:0]
		buf := e.routeBuf()
		// prevTS tracks the timestamp of the preceding full-run tuple: a
		// guarded sub-run carries it per tuple (Batch.Prev) so matchers can
		// evict to the exact horizon the per-item path would have — arrivals
		// the guard drops still advance event time.
		prevTS := e.now
		for _, it := range items {
			buf = rt.dispatchGuarded(si.readers, it.Tuple, buf[:0])
			for _, ri := range buf {
				if subs[ri] == nil {
					subs[ri] = stream.GetBatch()
				}
				subs[ri].Tuples = append(subs[ri].Tuples, it.Tuple)
				subs[ri].Prev = append(subs[ri].Prev, prevTS)
			}
			prevTS = it.Tuple.TS
		}
		e.routeScratch[e.depth] = buf
	}
	releaseSubs := func() {
		for i, sb := range subs {
			if sb != nil {
				sb.Release()
				subs[i] = nil
			}
		}
	}

	// A run can flow reader-by-reader only when no delivered reader can
	// observe another's per-tuple interleaving: a single delivered reader,
	// or delivered readers that are all silent (callback-only — no derived
	// tuples re-entering the engine).
	ndeliv, anyTarget := 0, false
	for i := range si.readers {
		rd := &si.readers[i]
		if rd.guard != nil && (!guarded || subs[i] == nil) {
			continue
		}
		ndeliv++
		if rd.q.target != "" {
			anyTarget = true
		}
	}
	if ndeliv > 1 && anyTarget {
		releaseSubs()
		for _, it := range items {
			if err := e.routeLocked(si, it.Tuple); err != nil {
				return err
			}
		}
		return orderErr
	}

	// Stamp sequence numbers, retain history, notify subscribers. The clock
	// is not advanced yet: each kernel bumps it tuple-by-tuple so derived
	// rows emitted mid-run are stamped against the serial clock.
	for _, it := range items {
		t := it.Tuple
		e.seq++
		t.Seq = e.seq
		if si.history != nil {
			if err := si.history.Add(t); err != nil {
				releaseSubs()
				return err
			}
		}
		for _, fn := range si.subscribers {
			fn(t)
		}
	}
	if si.history != nil {
		si.history.EvictBefore(maxTS.Add(-si.retain))
	}
	si.ntuples += uint64(len(items))

	b := stream.GetBatch()
	for _, it := range items {
		b.Tuples = append(b.Tuples, it.Tuple)
	}
	var err error
	for i := range si.readers {
		rd := &si.readers[i]
		rb := b
		if rd.guard != nil {
			if !guarded || subs[i] == nil {
				continue
			}
			rb = subs[i]
		}
		rd.routed += uint64(len(rb.Tuples))
		if err = e.pushBatchQueryLocked(rd.q, rd.aliases, rb); err != nil {
			break
		}
	}
	b.Release()
	releaseSubs()
	if err != nil {
		return err
	}
	if maxTS > e.now {
		e.now = maxTS
	}
	return orderErr
}

// StreamNames returns the declared stream names (sources and derived), in
// sorted order.
func (e *Engine) StreamNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.streams))
	for _, si := range e.streams {
		names = append(names, si.schema.Name())
	}
	sort.Strings(names)
	return names
}

// PushTuple appends a pre-built tuple (its schema must be the stream's).
func (e *Engine) PushTuple(streamName string, t *stream.Tuple) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshRoutesLocked()
	si, ok := e.streams[strings.ToLower(streamName)]
	if !ok {
		return fmt.Errorf("esl: unknown stream %s", streamName)
	}
	return e.pushOneLocked(si, t)
}

// routeLocked delivers a tuple: sequence-stamp it, advance event time,
// retain history, notify queries reading the stream, then advance all other
// queries' clocks.
func (e *Engine) routeLocked(si *streamInfo, t *stream.Tuple) error {
	if e.depth > 64 {
		return fmt.Errorf("esl: derived-stream recursion exceeds 64 (query cycle?)")
	}
	e.depth++
	defer func() { e.depth-- }()

	if t.TS < e.now {
		return fmt.Errorf("esl: out-of-order arrival on %s: %s is before engine time %s (merge concurrent sources with stream.Merger and per-source slack)",
			si.schema.Name(), t.TS, e.now)
	}
	e.seq++
	t.Seq = e.seq
	if t.TS > e.now {
		e.now = t.TS
	}
	if si.history != nil {
		if err := si.history.Add(t); err != nil {
			return err
		}
		si.history.EvictBefore(e.now.Add(-si.retain))
	}
	for _, fn := range si.subscribers {
		fn(t)
	}
	si.ntuples++
	if rt := si.route; rt != nil && rt.nGuarded > 0 {
		sel := rt.dispatch(si.readers, t, e.routeBuf())
		e.routeScratch[e.depth] = sel // keep grown capacity for reuse
		for _, ri := range sel {
			rd := &si.readers[ri]
			rd.routed++
			if err := e.pushQueryLocked(rd.q, rd.aliases, t); err != nil {
				return err
			}
		}
	} else {
		for i := range si.readers {
			rd := &si.readers[i]
			rd.routed++
			if err := e.pushQueryLocked(rd.q, rd.aliases, t); err != nil {
				return err
			}
		}
	}
	// Event time advanced for everyone (active expiration across queries
	// that did not see this tuple).
	return e.advanceLocked(e.now)
}

// routeBuf returns an empty dispatch buffer for the current recursion
// depth. Derived-stream emission re-enters routeLocked at depth+1, so each
// depth owns its buffer and in-flight dispatches are never clobbered.
func (e *Engine) routeBuf() []int {
	for len(e.routeScratch) <= e.depth {
		e.routeScratch = append(e.routeScratch, nil)
	}
	return e.routeScratch[e.depth][:0]
}

// Heartbeat advances event time without a tuple (punctuation), firing
// expirations — Active Expiration per §3.1.3. Behind an ingest boundary the
// beat advances the high-water mark, and the clock follows the watermark (ts
// minus slack) once held-back tuples are released.
func (e *Engine) Heartbeat(ts stream.Timestamp) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshRoutesLocked()
	return e.dur.Offer([]stream.Item{stream.Heartbeat(ts)}, e.offerItemLocked)
}

func (e *Engine) advanceLocked(ts stream.Timestamp) error {
	for _, q := range e.queries {
		if err := e.advanceQueryLocked(q, ts); err != nil {
			return err
		}
	}
	for _, g := range e.groups {
		if err := e.advanceQueryLocked(g.q, ts); err != nil {
			return err
		}
	}
	for _, si := range e.streams {
		if si.history != nil {
			si.history.EvictBefore(ts.Add(-si.retain))
		}
	}
	return nil
}

// Feed connects a stream.Merger emission to the engine: source names must
// equal stream names; heartbeats advance event time.
func (e *Engine) Feed(name string, it stream.Item) error {
	if it.IsHeartbeat() {
		return e.Heartbeat(it.TS)
	}
	return e.PushTuple(name, it.Tuple)
}
