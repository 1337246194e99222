package eslev

import (
	"time"

	"repro/internal/ale"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/esl"
	"repro/internal/rfid"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/stream"
)

// ---- values, tuples, time ---------------------------------------------------

// Value is one SQL value (a compact tagged union: NULL, INT, FLOAT,
// STRING, BOOL, TIME).
type Value = stream.Value

// Null is the SQL NULL value.
var Null = stream.Null

// Int builds an integer value.
func Int(v int64) Value { return stream.Int(v) }

// Float builds a floating-point value.
func Float(v float64) Value { return stream.Float(v) }

// Str builds a string value.
func Str(v string) Value { return stream.Str(v) }

// Bool builds a boolean value.
func Bool(v bool) Value { return stream.Bool(v) }

// Time builds a timestamp value.
func Time(ts Timestamp) Value { return stream.Time(ts) }

// Timestamp is an event-time instant (nanoseconds since the simulation
// epoch). All windows and sequence ordering use event time, never the wall
// clock.
type Timestamp = stream.Timestamp

// TS converts a duration offset from the epoch into a Timestamp.
func TS(d time.Duration) Timestamp { return stream.TS(d) }

// Tuple is one stream record.
type Tuple = stream.Tuple

// Schema describes the columns of a stream or table.
type Schema = stream.Schema

// Field is one schema column.
type Field = stream.Field

// NewSchema declares a schema programmatically (streams declared via
// Exec(CREATE STREAM ...) get theirs automatically).
func NewSchema(name string, fields ...Field) (*Schema, error) {
	return stream.NewSchema(name, fields...)
}

// NewTuple builds a tuple against a schema, validating types and
// synchronizing the event-time column.
func NewTuple(s *Schema, ts Timestamp, vals ...Value) (*Tuple, error) {
	return stream.NewTuple(s, ts, vals...)
}

// Item is a merged element: a tuple or a heartbeat.
type Item = stream.Item

// Heartbeat builds a punctuation item carrying only a timestamp.
func Heartbeat(ts Timestamp) Item { return stream.Heartbeat(ts) }

// Source is one ordered input to a Merger.
type Source = stream.Source

// Merger combines concurrent sources into one deterministic event-time
// sequence; feed its output to Engine.Feed.
type Merger = stream.Merger

// NewMerger builds a merger over the sources.
func NewMerger(sources ...Source) *Merger { return stream.NewMerger(sources...) }

// ---- the engine --------------------------------------------------------------

// Engine is the ESL-EV continuous-query engine. See esl.Engine for the
// execution model; this alias is the supported public entry point.
type Engine = esl.Engine

// Row is one output row of a continuous or snapshot query.
type Row = esl.Row

// Query is a registered continuous query handle.
type Query = esl.Query

// ScalarFunc is a user-defined scalar function callable from queries.
type ScalarFunc = esl.ScalarFunc

// Accumulator is a custom (Go-level) aggregate implementation; SQL-bodied
// UDAs are declared in the language via CREATE AGGREGATE.
type Accumulator = esl.Accumulator

// New builds an empty engine with the built-in functions (extract_serial,
// epc_match, ...) and aggregates (COUNT/SUM/AVG/MIN/MAX) installed. Options
// enable the fault-tolerant ingest boundary (WithSlack, WithLateness, ...);
// with no options the engine runs the strict historical path: in-order
// arrivals only, disorder rejected with an error.
func New(opts ...Option) *Engine { return esl.New(opts...) }

// ---- fault tolerance ----------------------------------------------------------

// Option configures an Engine (or the boundary of a ShardedEngine) at
// construction.
type Option = esl.Option

// WithSlack absorbs bounded arrival disorder at the ingest boundary: tuples
// are held back until the high-water mark passes ts+slack, then released to
// the exact in-order core in (timestamp, arrival) order.
func WithSlack(d time.Duration) Option { return esl.WithSlack(d) }

// WithLateness selects the fate of tuples behind the watermark: LateError
// (default), LateDrop, or LateDeadLetter.
func WithLateness(p LatenessPolicy) Option { return esl.WithLateness(p) }

// WithMaxTupleBytes quarantines rows whose estimated size exceeds the budget.
func WithMaxTupleBytes(n int) Option { return esl.WithMaxTupleBytes(n) }

// WithExactDedup drops exact duplicate tuples arriving within the reorder
// horizon.
func WithExactDedup() Option { return esl.WithExactDedup() }

// ---- durability & recovery ----------------------------------------------------
//
// Durable state has two layers: versioned snapshots of all mutable engine
// state (Engine.Checkpoint / Engine.Restore write and read them on any
// io.Writer/Reader; both are also methods of ShardedEngine), and an
// append-only event journal of every offered item. With WithJournal enabled,
// Engine.Recover(dir) — or ShardedEngine.Recover — loads the newest valid
// snapshot in dir and replays the journal suffix past its cut, re-emitting
// exactly the rows the crashed run produced after the snapshot.
// Engine.CheckpointNow forces a durable snapshot between the automatic
// WithCheckpointEvery cuts.

// WithJournal enables the append-only event journal in dir: every offered
// item (tuple or heartbeat) is assigned a log sequence number and appended
// before the engine processes it, so recovery is snapshot + journal suffix.
func WithJournal(dir string) Option { return esl.WithJournal(dir) }

// WithCheckpointEvery writes a durable snapshot into the journal directory
// every n journaled records (requires WithJournal).
func WithCheckpointEvery(n int) Option { return esl.WithCheckpointEvery(n) }

// WithFsync selects the journal's durability/throughput trade-off; see the
// FsyncPolicy constants.
func WithFsync(p FsyncPolicy) Option { return esl.WithFsync(p) }

// ---- time travel ---------------------------------------------------------------
//
// Every checkpoint names the current state of each table as an immutable
// version at that checkpoint's LSN. Snapshot queries read any retained
// version with an AS OF clause —
//
//	SELECT * FROM location_history AS OF LSN 2000
//	SELECT * FROM location_history AS OF TIMESTAMP 30 SECONDS
//
// — resolving the anchor down to the newest checkpoint at or before it.
// Versions survive Engine.Recover: a restored replica serves the same
// historical reads as the original.

// WithRetainVersions keeps only the newest n checkpoint-cut table versions
// reachable for AS OF queries (0, the default, retains all). Versions
// pinned by in-flight readers survive the bound until unpinned.
func WithRetainVersions(n int) Option { return esl.WithRetainVersions(n) }

// FsyncPolicy selects how eagerly journal appends reach stable storage.
// Records are group-committed — flushed to the OS at every push-call
// boundary — so a process crash loses at most the unacknowledged call; the
// policy governs the further page-cache-to-disk step that matters only for
// OS or power failure.
type FsyncPolicy = snapshot.FsyncPolicy

// The fsync policies.
const (
	// FsyncNever leaves flushing to the OS: fastest, may lose the tail on
	// power failure.
	FsyncNever = snapshot.FsyncNever
	// FsyncInterval syncs once per sync window: bounded loss.
	FsyncInterval = snapshot.FsyncInterval
	// FsyncAlways syncs after every record: zero loss, slowest.
	FsyncAlways = snapshot.FsyncAlways
)

// Snapshot and recovery failure sentinels (match with errors.Is).
var (
	// ErrSnapshotTruncated: the input ended before the declared length.
	ErrSnapshotTruncated = snapshot.ErrTruncated
	// ErrSnapshotCorrupt: framing or checksum failure.
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrSnapshotVersion: written by an incompatible codec version.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrStateMismatch: the snapshot does not match the engine's registered
	// streams, queries, or ingest configuration.
	ErrStateMismatch = snapshot.ErrStateMismatch
	// ErrShardMismatch: serial/sharded kind or shard count disagrees.
	ErrShardMismatch = snapshot.ErrShardMismatch
)

// LatenessPolicy decides what happens to tuples behind the ingest watermark.
type LatenessPolicy = stream.LatenessPolicy

// The lateness policies.
const (
	LateError      = stream.LateError
	LateDrop       = stream.LateDrop
	LateDeadLetter = stream.LateDeadLetter
)

// DeadLetter is one quarantined record: the offending tuple, the reason
// code, and — for query panics — the query name and captured stack.
type DeadLetter = stream.DeadLetter

// DeadReason classifies why a record was quarantined.
type DeadReason = stream.DeadReason

// The dead-letter reason codes.
const (
	DeadLate       = stream.DeadLate
	DeadMalformed  = stream.DeadMalformed
	DeadOversized  = stream.DeadOversized
	DeadQueryPanic = stream.DeadQueryPanic
)

// ---- speculative execution -----------------------------------------------------
//
// On a slack-configured engine, queries registered FAST or MIDDLE (via
// WithConsistency or a trailing CONSISTENCY clause in the SQL) emit
// speculative rows ahead of the watermark and compensate disorder with
// retractions. Every delivered row then carries a polarity (+/−/final) and
// a stable match identity; folding retractions against their assertions
// reproduces the STRICT output exactly.

// ConsistencyLevel is the per-query speculation/latency trade-off.
type ConsistencyLevel = spec.Level

// The consistency levels.
const (
	// Strict is the watermark-gated default: rows emit only once the
	// reorder boundary proves their inputs final.
	Strict = spec.Strict
	// Middle emits after a short speculation horizon with bounded
	// retraction depth.
	Middle = spec.Middle
	// Fast emits on arrival and compensates with retractions.
	Fast = spec.Fast
)

// ParseConsistencyLevel parses a level name ("STRICT", "MIDDLE", "FAST"),
// case-insensitively.
func ParseConsistencyLevel(s string) (ConsistencyLevel, bool) { return spec.ParseLevel(s) }

// Polarity is the sign a delivered record carries: Assert (+1) adds a
// speculative row, Retract (−1) cancels a prior assertion with the same
// match identity, Final (0) is a watermark-proven row.
type Polarity = spec.Polarity

// The record polarities.
const (
	PolarityAssert  = spec.Assert
	PolarityRetract = spec.Retract
	PolarityFinal   = spec.Final
)

// QueryOption tunes one RegisterQueryOpts registration.
type QueryOption = esl.QueryOption

// WithConsistency selects the query's speculation level at register time,
// overriding any CONSISTENCY clause in the SQL.
func WithConsistency(l ConsistencyLevel) QueryOption { return esl.WithConsistency(l) }

// WithRetractionDepth caps how many unconfirmed assertions a MIDDLE query
// may have outstanding (default 64): beyond it, speculative emission is
// suppressed until the strict path catches up.
func WithRetractionDepth(n int) QueryOption { return esl.WithRetractionDepth(n) }

// RecordTags reports a delivered row's speculation tags: its polarity plus
// the (sequence, provenance-hash) pair forming the stable match identity a
// retraction shares with the assertion it cancels. Strict rows report
// (PolarityFinal, 0, 0).
func RecordTags(r Row) (pol Polarity, seq, hash uint64) { return esl.RecordTags(r) }

// TagRecord returns a copy of r carrying the given record tags — the
// decode-side constructor for transports that ship polarity out of band.
func TagRecord(r Row, pol Polarity, seq, hash uint64) Row { return esl.TagRecord(r, pol, seq, hash) }

// SpecStats is the per-query speculation counter snapshot returned by
// Engine.SpecStats: assertions, confirmations, retractions, late finals,
// suppressed emissions, and the level's gate gauges.
type SpecStats = esl.SpecStats

// EngineStats is the engine-wide robustness counter snapshot; the boundary
// balance Ingested = Emitted + DroppedLate + DroppedDup + DeadLettered +
// PendingReorder holds at every instant.
type EngineStats = esl.EngineStats

// QueryStats is the per-query observability snapshot returned by
// Engine.Stats: emitted rows, retained state, live partial-match runs, and
// the routing index's delivered/skipped tuple counts.
type QueryStats = esl.QueryStats

// Table is a persistent in-memory relation reachable from stream–DB
// spanning queries.
type Table = db.Table

// Of wraps a tuple as a merged stream item.
func Of(t *Tuple) Item { return stream.Of(t) }

// Batch is a pooled column-of-tuples unit of vectorized execution: a run of
// same-stream tuples plus a selection vector that fused operator kernels
// narrow instead of copying survivors. Engine.PushBatch and
// ShardedEngine.PushBatch move items through the engines batch-at-a-time;
// Batch itself is the internal carrier, exported for kernel-level tooling
// and tests.
type Batch = stream.Batch

// GetBatch leases an empty batch from the shared pool; return it with
// Release when the tuples are no longer referenced.
func GetBatch() *Batch { return stream.GetBatch() }

// ---- partition-parallel execution --------------------------------------------

// ShardedEngine runs N independent engine replicas in parallel, hash-routing
// tuples by the planner-derived partition key: keyed SEQ queries and
// stateless filter-projections distribute across shards, while global work
// (aggregates, exception timers, EXISTS windows, table access) runs on
// shard 0 with an exact serial clock. Output re-merges in timestamp order.
// The API mirrors Engine; push all input from one goroutine and call Drain
// (or Close) before reading final results.
type ShardedEngine = shard.Engine

// NewSharded builds a sharded engine over n replicas (n >= 1). Options
// configure the shared fault-tolerant ingest boundary ahead of the hash
// router; the replicas themselves stay strict.
func NewSharded(n int, opts ...Option) *ShardedEngine { return shard.New(n, opts...) }

// ---- the temporal-event core as a direct Go API ------------------------------
//
// The SEQ machinery is also usable without SQL: build a PatternDef, feed
// tuples to a Matcher. This is the paper's §3 contribution as a library.

// PatternDef declares a SEQ pattern (steps, pairing mode, window).
type PatternDef = core.Def

// PatternStep is one position of a pattern.
type PatternStep = core.Step

// PairingMode is a Tuple Pairing Mode.
type PairingMode = core.Mode

// The four pairing modes of §3.1.1.
const (
	Unrestricted = core.ModeUnrestricted
	Recent       = core.ModeRecent
	Chronicle    = core.ModeChronicle
	Consecutive  = core.ModeConsecutive
)

// PatternWindow anchors a sliding window on a pattern step.
type PatternWindow = core.WindowAnchor

// Match is one detected event.
type Match = core.Match

// Matcher evaluates a SEQ pattern incrementally.
type Matcher = core.Matcher

// NewMatcher validates the pattern and builds a matcher.
func NewMatcher(def PatternDef) (*Matcher, error) { return core.NewMatcher(def) }

// ExceptionMatcher evaluates EXCEPTION_SEQ / CLEVEL_SEQ patterns.
type ExceptionMatcher = core.ExceptionMatcher

// SeqException is one detected sequence violation.
type SeqException = core.Exception

// NewExceptionMatcher builds the violation detector.
func NewExceptionMatcher(def PatternDef) (*ExceptionMatcher, error) {
	return core.NewExceptionMatcher(def)
}

// ---- RFID workload simulation -------------------------------------------------

// Trace is a generated RFID workload (readings in event-time order).
type Trace = rfid.Trace

// Reading is one raw RFID observation.
type Reading = rfid.Reading

// NoiseModel injects duplicate and missed reads into a trace.
type NoiseModel = rfid.NoiseModel

// PackingConfig / PackingLine generate the Figure 1 packing workload.
type PackingConfig = rfid.PackingConfig

// PackingLine generates the packing workload with ground truth.
func PackingLine(cfg PackingConfig) (*Trace, []rfid.PackingCase) { return rfid.PackingLine(cfg) }

// QualityConfig / QualityLine generate the Example 6 pipeline workload.
type QualityConfig = rfid.QualityConfig

// QualityLine generates the quality-check workload with ground truth.
func QualityLine(cfg QualityConfig) (*Trace, []rfid.QualityItem) { return rfid.QualityLine(cfg) }

// ClinicConfig / ClinicWorkflow generate the Example 5 lab workload.
type ClinicConfig = rfid.ClinicConfig

// ClinicWorkflow generates the clinic workload with ground truth.
func ClinicWorkflow(cfg ClinicConfig) (*Trace, []rfid.ClinicTest) { return rfid.ClinicWorkflow(cfg) }

// DoorConfig / DoorTraffic generate the Example 8 door workload.
type DoorConfig = rfid.DoorConfig

// DoorTraffic generates the door-security workload with ground truth.
func DoorTraffic(cfg DoorConfig) (*Trace, []rfid.DoorEvent) { return rfid.DoorTraffic(cfg) }

// UniformReadings generates a generic high-volume reading stream.
func UniformReadings(streamName string, n, tagCardinality int, period time.Duration, seed int64) *Trace {
	return rfid.UniformReadings(streamName, n, tagCardinality, period, seed)
}

// ---- ALE reporting -------------------------------------------------------------

// ECSpec is an ALE-style event-cycle specification.
type ECSpec = ale.ECSpec

// ReportSpec defines one report within an ECSpec.
type ReportSpec = ale.ReportSpec

// Report is one produced ALE report.
type Report = ale.Report

// EventCycle drives an ECSpec over event time.
type EventCycle = ale.EventCycle

// ALE report set types.
const (
	ReportCurrent   = ale.ReportCurrent
	ReportAdditions = ale.ReportAdditions
	ReportDeletions = ale.ReportDeletions
)

// NewEventCycle compiles an ECSpec; onReport receives reports as cycles
// close.
func NewEventCycle(spec ECSpec, onReport func(Report)) (*EventCycle, error) {
	return ale.NewEventCycle(spec, onReport)
}

// SplitStatements splits a multi-statement script into individual
// statements, respecting single-quoted strings and -- line comments.
func SplitStatements(src string) []string { return esl.SplitStatements(src) }
