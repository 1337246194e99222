package rfid

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/stream"
)

// jitter returns a uniformly random duration in [0, max).
func jitter(rng *rand.Rand, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(max)))
}

// PackingConfig drives the Figure 1 / Example 7 packing-line scenario:
// reader r1 scans products being packed, reader r2 scans packing cases.
// Products of one case arrive with inter-arrival gaps below IntraGap; the
// case reading follows the last product within CaseDelay; consecutive
// cases' product groups may overlap in time per the paper's Figure 1(b),
// separated by gaps above IntraGap.
type PackingConfig struct {
	Cases          int
	ItemsPerCase   int // mean; actual in [1, 2*mean)
	IntraGap       time.Duration
	CaseDelay      time.Duration
	InterCaseGap   time.Duration
	ProductStream  string
	CaseStream     string
	Seed           int64
	LateCaseEvery  int // every Nth case reading violates CaseDelay (0 = never)
	MissedCaseRate float64
}

func (c *PackingConfig) defaults() {
	if c.Cases == 0 {
		c.Cases = 10
	}
	if c.ItemsPerCase == 0 {
		c.ItemsPerCase = 4
	}
	if c.IntraGap == 0 {
		c.IntraGap = time.Second
	}
	if c.CaseDelay == 0 {
		c.CaseDelay = 5 * time.Second
	}
	if c.InterCaseGap == 0 {
		c.InterCaseGap = 10 * time.Second
	}
	if c.ProductStream == "" {
		c.ProductStream = "R1"
	}
	if c.CaseStream == "" {
		c.CaseStream = "R2"
	}
}

// PackingCase records ground truth for one generated case.
type PackingCase struct {
	CaseTag  string
	Items    []string
	CaseAt   stream.Timestamp
	LateCase bool
	Missed   bool
}

// PackingLine generates the packing workload with ground truth.
func PackingLine(cfg PackingConfig) (*Trace, []PackingCase) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := NewTrace()
	tr.DeclareStream(cfg.ProductStream)
	tr.DeclareStream(cfg.CaseStream)
	products := NewTagSet(20, 100, 5000)
	var truth []PackingCase

	at := stream.TS(time.Second)
	for c := 0; c < cfg.Cases; c++ {
		nItems := 1 + rng.Intn(2*cfg.ItemsPerCase-1)
		pc := PackingCase{CaseTag: fmt.Sprintf("case-%04d", c)}
		for i := 0; i < nItems; i++ {
			tag := products.Next()
			pc.Items = append(pc.Items, tag)
			tr.Add(Reading{Stream: cfg.ProductStream, ReaderID: "r1", TagID: tag, At: at})
			if i < nItems-1 {
				// Stay strictly inside the intra-gap threshold.
				at = at.Add(cfg.IntraGap/4 + jitter(rng, cfg.IntraGap/2))
			}
		}
		delay := cfg.CaseDelay / 4
		pc.LateCase = cfg.LateCaseEvery > 0 && (c+1)%cfg.LateCaseEvery == 0
		if pc.LateCase {
			delay = cfg.CaseDelay*2 + time.Second
		}
		pc.CaseAt = at.Add(delay + jitter(rng, cfg.CaseDelay/4))
		pc.Missed = cfg.MissedCaseRate > 0 && rng.Float64() < cfg.MissedCaseRate
		if !pc.Missed {
			tr.Add(Reading{Stream: cfg.CaseStream, ReaderID: "r2", TagID: pc.CaseTag, At: pc.CaseAt})
		}
		truth = append(truth, pc)
		// Next case's products start after a gap above IntraGap; per
		// Figure 1(b) they may start before this case's reading.
		at = at.Add(cfg.IntraGap + cfg.InterCaseGap/2 + jitter(rng, cfg.InterCaseGap/2))
		// A late case reading must not land within CaseDelay of the NEXT
		// case's product run, or it would legally pair with that run (the
		// query has no case-to-run identity); keep the staged truth
		// unambiguous by pushing the next run past it.
		if pc.LateCase && !pc.Missed {
			if next := pc.CaseAt.Add(cfg.CaseDelay + time.Second); next > at {
				at = next
			}
		}
	}
	tr.Sort()
	return tr, truth
}

// QualityConfig drives the Example 6 scenario: items traverse checkpoints
// C1..C4 with per-stage transit delays; some drop out mid-pipeline.
type QualityConfig struct {
	Items        int
	Stages       []string // default C1..C4
	ArrivalEvery time.Duration
	Transit      time.Duration
	DropRate     float64 // chance an item vanishes before each later stage
	Seed         int64
}

func (c *QualityConfig) defaults() {
	if c.Items == 0 {
		c.Items = 20
	}
	if len(c.Stages) == 0 {
		c.Stages = []string{"C1", "C2", "C3", "C4"}
	}
	if c.ArrivalEvery == 0 {
		c.ArrivalEvery = 2 * time.Second
	}
	if c.Transit == 0 {
		c.Transit = 3 * time.Second
	}
}

// QualityItem is ground truth for one item.
type QualityItem struct {
	Tag       string
	Completed bool
	Times     []stream.Timestamp // per completed stage
}

// QualityLine generates the pipeline workload; items interleave across
// stages, so the SEQ query must pair readings per tag.
func QualityLine(cfg QualityConfig) (*Trace, []QualityItem) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := NewTrace()
	for _, s := range cfg.Stages {
		tr.DeclareStream(s)
	}
	tags := NewTagSet(20, 200, 1000)
	var truth []QualityItem
	for i := 0; i < cfg.Items; i++ {
		item := QualityItem{Tag: tags.Next(), Completed: true}
		at := stream.TS(time.Duration(i) * cfg.ArrivalEvery).Add(jitter(rng, cfg.ArrivalEvery/2))
		for s, stage := range cfg.Stages {
			if s > 0 && cfg.DropRate > 0 && rng.Float64() < cfg.DropRate {
				item.Completed = false
				break
			}
			tr.Add(Reading{Stream: stage, ReaderID: stage, TagID: item.Tag, At: at})
			item.Times = append(item.Times, at)
			at = at.Add(cfg.Transit/2 + jitter(rng, cfg.Transit))
		}
		truth = append(truth, item)
	}
	tr.Sort()
	return tr, truth
}

// ClinicConfig drives the Example 5 scenario: staff perform operation
// sequences A -> B -> C on instruments, sometimes violating order or
// stalling past the deadline.
type ClinicConfig struct {
	Tests     int
	Staff     []string
	Streams   []string // default A1, A2, A3
	StepDelay time.Duration
	Deadline  time.Duration
	// WrongOrderEvery makes every Nth test swap two operations; StallEvery
	// makes every Nth test stop mid-sequence (timeout).
	WrongOrderEvery int
	StallEvery      int
	Seed            int64
}

func (c *ClinicConfig) defaults() {
	if c.Tests == 0 {
		c.Tests = 10
	}
	if len(c.Staff) == 0 {
		c.Staff = []string{"staff-1"}
	}
	if len(c.Streams) == 0 {
		c.Streams = []string{"A1", "A2", "A3"}
	}
	if c.StepDelay == 0 {
		c.StepDelay = 5 * time.Minute
	}
	if c.Deadline == 0 {
		c.Deadline = time.Hour
	}
}

// ClinicTest is ground truth for one generated test.
type ClinicTest struct {
	Staff string
	// Start is the time of the test's first reading. Tests run one after
	// another, so everything a test raises falls between its Start and the
	// next test's.
	Start      stream.Timestamp
	WrongOrder bool
	Stalled    bool
}

// ClinicWorkflow generates the lab-test workload.
func ClinicWorkflow(cfg ClinicConfig) (*Trace, []ClinicTest) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := NewTrace()
	for _, s := range cfg.Streams {
		tr.DeclareStream(s)
	}
	var truth []ClinicTest
	at := stream.TS(time.Minute)
	for i := 0; i < cfg.Tests; i++ {
		test := ClinicTest{Staff: cfg.Staff[i%len(cfg.Staff)], Start: at}
		test.WrongOrder = cfg.WrongOrderEvery > 0 && (i+1)%cfg.WrongOrderEvery == 0
		test.Stalled = !test.WrongOrder && cfg.StallEvery > 0 && (i+1)%cfg.StallEvery == 0
		order := []int{0, 1, 2}
		if test.WrongOrder {
			order = []int{0, 2, 1} // C before B
		}
		steps := len(order)
		if test.Stalled {
			steps = 1 + rng.Intn(2) // stop after 1-2 operations
		}
		for s := 0; s < steps; s++ {
			tr.Add(Reading{
				Stream:   cfg.Streams[order[s]],
				ReaderID: "wrist-" + test.Staff,
				TagID:    test.Staff,
				At:       at,
			})
			at = at.Add(cfg.StepDelay/2 + jitter(rng, cfg.StepDelay))
		}
		truth = append(truth, test)
		// Leave room so stalled tests visibly expire before the next one.
		at = at.Add(cfg.Deadline + cfg.StepDelay)
	}
	tr.Sort()
	return tr, truth
}

// DoorConfig drives the Example 8 scenario: items and persons pass a door
// reader; a theft is an item with no person within Tau on either side.
type DoorConfig struct {
	Events     int
	Tau        time.Duration
	TheftEvery int // every Nth item has no accompanying person
	Stream     string
	Seed       int64
}

func (c *DoorConfig) defaults() {
	if c.Events == 0 {
		c.Events = 20
	}
	if c.Tau == 0 {
		c.Tau = time.Minute
	}
	if c.Stream == "" {
		c.Stream = "tag_readings"
	}
}

// DoorEvent is ground truth for one item passage.
type DoorEvent struct {
	ItemTag string
	Theft   bool
}

// DoorTraffic generates the door-security workload on a single stream with
// a tagtype column.
func DoorTraffic(cfg DoorConfig) (*Trace, []DoorEvent) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := NewTrace()
	// Schema with tagtype: (tagid, tagtype, tagtime).
	tr.schemas[cfg.Stream] = stream.MustSchema(cfg.Stream,
		stream.Field{Name: "tagid"},
		stream.Field{Name: "tagtype"},
		stream.Field{Name: "tagtime"})
	items := NewTagSet(20, 300, 1)
	var truth []DoorEvent
	at := stream.TS(time.Minute)
	for i := 0; i < cfg.Events; i++ {
		theft := cfg.TheftEvery > 0 && (i+1)%cfg.TheftEvery == 0
		itemTag := items.Next()
		itemAt := at.Add(jitter(rng, cfg.Tau))
		tr.Readings = append(tr.Readings, Reading{Stream: cfg.Stream, ReaderID: "item", TagID: itemTag, At: itemAt})
		if !theft {
			// Person within tau before or after the item.
			off := time.Duration(rng.Int63n(int64(cfg.Tau))) - cfg.Tau/2
			tr.Readings = append(tr.Readings, Reading{
				Stream: cfg.Stream, ReaderID: "person",
				TagID: fmt.Sprintf("person-%03d", i), At: itemAt.Add(off),
			})
		}
		truth = append(truth, DoorEvent{ItemTag: itemTag, Theft: theft})
		// Separate events by > 2*tau so windows never overlap across them.
		at = at.Add(3*cfg.Tau + jitter(rng, cfg.Tau))
	}
	tr.Sort()
	return tr, truth
}

// DoorTuples converts a DoorTraffic trace into tuples, mapping ReaderID to
// the tagtype column.
func (tr *Trace) DoorTuples(streamName string) []*stream.Tuple {
	s := tr.schemas[streamName]
	var out []*stream.Tuple
	for _, r := range tr.Readings {
		if r.Stream != streamName {
			continue
		}
		out = append(out, stream.MustTuple(s, r.At,
			stream.Str(r.TagID), stream.Str(r.ReaderID), stream.Time(r.At)))
	}
	return out
}

// UniformReadings generates n plain readings on one stream with the given
// tag cardinality and arrival period — the generic high-volume workload for
// throughput benchmarks (dedup, EPC aggregation).
func UniformReadings(streamName string, n, tagCardinality int, period time.Duration, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := NewTrace()
	tr.DeclareStreamAs(streamName, "reader_id", "tag_id", "read_time")
	tags := make([]string, tagCardinality)
	set := NewTagSet(20, 400, 5000)
	for i := range tags {
		tags[i] = set.Next()
	}
	at := stream.TS(0)
	for i := 0; i < n; i++ {
		at = at.Add(period/2 + jitter(rng, period))
		tr.Add(Reading{
			Stream:   streamName,
			ReaderID: fmt.Sprintf("r%d", rng.Intn(4)+1),
			TagID:    tags[rng.Intn(len(tags))],
			At:       at,
		})
	}
	return tr
}
