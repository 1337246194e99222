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
	// queryOp.timeSensitive); deliverLocked's cut rule then takes every tuple
	// as a run of one.
	sensitive bool
	// tableWriters counts registered queries whose sink inserts into a store
	// table. While zero, filterProjectOp.pushBatch may pin table versions
	// once per batch (no same-batch write could become visible anyway);
	// otherwise joins re-pin per tuple to keep a query's own inserts visible
	// to later tuples.
	tableWriters int

	// Routing index (route.go). noRoute disables guard attachment (the
	// WithoutRouteIndex escape hatch); fanScratch holds routeRunLocked's
	// dispatch buffers, one set per derived-stream recursion depth.
	noRoute    bool
	fanScratch []fanScratch
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
	// pushBatch offers a run of consecutive same-stream tuples in
	// joint-history order, with the FROM aliases they are visible under; a
	// tuple delivered alone is a run of one. Implementations must advance
	// the engine clock (e.now) to each tuple as they process it — the router
	// moves it only to the run's first tuple, and to its last at the end —
	// and must produce the output of delivering the run one tuple at a time.
	pushBatch(aliases []string, b *stream.Batch) error
	// advance moves event time (heartbeats and other streams' arrivals),
	// driving window eviction and active expiration.
	advance(ts stream.Timestamp) error
	// timeSensitive reports whether the op can emit output from the passage
	// of event time alone (deferred FOLLOWING windows, exception timers).
	// Such ops need event time advanced after every arrival, so
	// deliverLocked cuts runs of one while one is registered; for all
	// others, advance only trims state that bind-time checks already
	// exclude, so it coalesces to the end of a delivery.
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
		Apply:   e.acceptLocked,
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
// timers). Such engines deliver every tuple as a run of one followed by a
// clock advance; for the rest, runs span consecutive same-stream tuples and
// clock and eviction work coalesce to the end of a delivery.
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
		return e.deliverLocked([]stream.Item{stream.Of(t)})
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
	return e.offerOneLocked(stream.Of(t))
}

// PushTuple appends a pre-built tuple. Its schema must name the stream:
// delivery and journal replay route a tuple by its schema's name.
func (e *Engine) PushTuple(streamName string, t *stream.Tuple) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshRoutesLocked()
	if _, ok := e.streams[strings.ToLower(streamName)]; !ok {
		return fmt.Errorf("esl: unknown stream %s", streamName)
	}
	if !strings.EqualFold(t.Schema.Name(), streamName) {
		return fmt.Errorf("esl: tuple schema %q does not match stream %q (delivery and journal replay dispatch by schema name)",
			t.Schema.Name(), streamName)
	}
	return e.offerOneLocked(stream.Of(t))
}

// PushBatch processes a run of merged items — tuples and heartbeats in
// joint-history (non-decreasing timestamp) order — under one lock
// acquisition. Tuples are routed to the stream named by their schema;
// heartbeats advance event time. Delivery is Push's, amortized: the items
// are cut into runs of consecutive same-stream tuples, and each run reaches
// every reader as one batch (deliverLocked). Journaled engines offer item by
// item, so on a mid-batch rejection the journal holds exactly the offered
// items.
func (e *Engine) PushBatch(items []stream.Item) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshRoutesLocked()
	return e.dur.Offer(items, e.acceptLocked)
}

// Heartbeat advances event time without a tuple (punctuation), firing
// expirations — Active Expiration per §3.1.3. Behind an ingest boundary the
// beat advances the high-water mark, and the clock follows the watermark (ts
// minus slack) once held-back tuples are released.
func (e *Engine) Heartbeat(ts stream.Timestamp) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshRoutesLocked()
	return e.offerOneLocked(stream.Heartbeat(ts))
}

// offerOneLocked offers a single item. Only the journal needs the item in a
// heap slice; otherwise it goes to acceptLocked from the stack, so Push,
// PushTuple and Heartbeat allocate nothing of their own.
func (e *Engine) offerOneLocked(it stream.Item) error {
	if e.dur.Journaling() {
		return e.dur.Offer([]stream.Item{it}, e.acceptLocked)
	}
	one := [1]stream.Item{it}
	return e.acceptLocked(one[:])
}

// acceptLocked takes offered items — live, or replayed from the journal —
// one at a time through the ingest boundary when one is configured, else
// straight to delivery.
func (e *Engine) acceptLocked(items []stream.Item) error {
	if e.ingest == nil {
		return e.deliverLocked(items)
	}
	for _, it := range items {
		if err := e.offerLocked(it); err != nil {
			return err
		}
	}
	return nil
}

// deliverLocked is the engine's one delivery loop: every entry point, the
// ingest release, journal replay and derived-stream re-entry end here, with
// items in joint-history order. It cuts the tuples into runs (cutLocked) and
// hands each run to routeRunLocked; a tuple delivered alone is a run of one.
// Heartbeats advance event time at their exact position: heartbeat-time
// eviction prunes expired runs BEFORE the next tuple can bind into them,
// which changes which matches form. After a run, event time advances for
// every query — right away when the cut rule says so, else once after the
// last run (the matchers evict internally at each tuple's horizon, so only
// the trailing advance is deferrable).
func (e *Engine) deliverLocked(items []stream.Item) error {
	owed := false // a delivered run's advance is still deferred
	for i := 0; i < len(items); {
		it := items[i]
		if it.IsHeartbeat() {
			if it.TS > e.now {
				e.now = it.TS
			}
			owed = false
			if err := e.advanceLocked(e.now); err != nil {
				return err
			}
			i++
			continue
		}
		si, ok := e.streams[strings.ToLower(it.Tuple.Schema.Name())]
		if !ok {
			if owed {
				_ = e.advanceLocked(e.now)
			}
			return fmt.Errorf("esl: unknown stream %s", it.Tuple.Schema.Name())
		}
		end, exact := e.cutLocked(si, items, i)
		if err := e.routeRunLocked(si, items[i:end]); err != nil {
			// Items before the failure were processed: give them their
			// deferred advance before surfacing the error.
			if owed || !exact {
				_ = e.advanceLocked(e.now)
			}
			return err
		}
		owed = !exact
		if exact {
			if err := e.advanceLocked(e.now); err != nil {
				return err
			}
		}
		i = end
	}
	if owed {
		return e.advanceLocked(e.now)
	}
	return nil
}

// cutLocked is the cut rule: it returns the end of the run of si's tuples
// that starts at items[i], and whether event time must advance right after
// it. A time-sensitive engine (TimeSensitive) takes every tuple as a run of
// one followed by its advance, so deferred windows and exception timers
// observe the clock at every arrival (§3.1.3). A stream whose readers could
// observe each other's per-tuple interleaving (routeTable.interleaved) also
// takes runs of one, with the advance deferred. Otherwise a run spans all
// consecutive tuples of the stream, advance deferred.
func (e *Engine) cutLocked(si *streamInfo, items []stream.Item, i int) (end int, exact bool) {
	if e.sensitive {
		return i + 1, true
	}
	end = i + 1
	if si.route != nil && si.route.interleaved {
		return end, false
	}
	schema := items[i].Tuple.Schema
	for end < len(items) && items[end].Tuple != nil && items[end].Tuple.Schema == schema {
		end++
	}
	return end, false
}

// routeRunLocked is the one router: it delivers a run of consecutive
// same-stream tuples to the stream's readers — it checks joint-history
// order, stamps sequence numbers, retains history, notifies subscribers, and
// gives each reader its share of the run as one batch. An unguarded reader
// gets the whole run; a guarded reader gets the sub-run its guard admits, or
// nothing. Derived rows a reader emits re-enter deliverLocked from the sink
// one level deeper; the depth cap stops query cycles.
func (e *Engine) routeRunLocked(si *streamInfo, items []stream.Item) error {
	if e.depth > 64 {
		return fmt.Errorf("esl: derived-stream recursion exceeds 64 (query cycle?)")
	}
	e.depth++
	defer func() { e.depth-- }()
	// Validate joint-history order up front, truncating the run at the
	// first violation: the in-order prefix is delivered, then the error
	// surfaces.
	var orderErr error
	last := e.now
	for k, it := range items {
		if it.Tuple.TS < last {
			orderErr = fmt.Errorf("esl: out-of-order arrival on %s: %s is before engine time %s (merge concurrent sources with stream.Merger and per-source slack)",
				si.schema.Name(), it.Tuple.TS, last)
			items = items[:k]
			break
		}
		last = it.Tuple.TS
	}
	if len(items) == 0 {
		return orderErr
	}

	// Guarded readers: pre-compute each one's admitted sub-run; a guarded
	// reader with an empty sub-run is not delivered at all.
	for len(e.fanScratch) < e.depth {
		e.fanScratch = append(e.fanScratch, fanScratch{})
	}
	rt := si.route
	guarded := rt != nil && rt.nGuarded > 0
	var subs []*stream.Batch
	if guarded {
		sc := &e.fanScratch[e.depth-1]
		subs = sc.subs[:0]
		for range si.readers {
			subs = append(subs, nil)
		}
		buf := sc.admitted
		// prev tracks the timestamp of the preceding full-run tuple: a
		// guarded sub-run carries it per tuple (Batch.Prev) so matchers can
		// evict to the exact horizon tuple-at-a-time delivery would have —
		// arrivals the guard drops still advance event time.
		prev := e.now
		for _, it := range items {
			buf = rt.dispatchGuarded(si.readers, it.Tuple, buf[:0])
			for _, ri := range buf {
				if subs[ri] == nil {
					subs[ri] = stream.GetBatch()
				}
				subs[ri].Tuples = append(subs[ri].Tuples, it.Tuple)
				subs[ri].Prev = append(subs[ri].Prev, prev)
			}
			prev = it.Tuple.TS
		}
		sc.subs, sc.admitted = subs[:0], buf[:0]
	}
	releaseSubs := func() {
		for i, sb := range subs {
			if sb != nil {
				sb.Release()
				subs[i] = nil
			}
		}
	}

	// Stamp sequence numbers, retain history, notify subscribers. The clock
	// moves to the first tuple; each kernel bumps it tuple by tuple from
	// there, so derived rows emitted mid-run are stamped against the serial
	// clock.
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
		si.history.EvictBefore(last.Add(-si.retain))
	}
	si.ntuples += uint64(len(items))
	before := e.now
	if ts := items[0].Tuple.TS; ts > e.now {
		e.now = ts
	}

	// An unguarded reader's run carries its horizons too: before the run's
	// first tuple the clock stood at the previous delivery's last arrival,
	// which the reader's matcher may not have seen.
	b := stream.GetBatch()
	prev := before
	for _, it := range items {
		b.Tuples = append(b.Tuples, it.Tuple)
		b.Prev = append(b.Prev, prev)
		prev = it.Tuple.TS
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
	if last > e.now {
		e.now = last
	}
	return orderErr
}

// fanScratch is one recursion depth's dispatch buffers: a derived row
// re-enters delivery one level deeper, so the buffers of the delivery it
// interrupts stay intact.
type fanScratch struct {
	admitted []int           // guarded reader ordinals admitting one tuple
	subs     []*stream.Batch // per-reader admitted sub-runs, nil where none
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
