package esl

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

// fuzzSchema declares every stream and table the paper's examples and the
// scripts/*.esl queries read, so their seeds register and run. readings
// carries both Example 1's tag_id and Example 3's tid.
const fuzzSchema = `
	CREATE STREAM readings(reader_id, tag_id, read_time, tid);
	CREATE STREAM tag_locations(readerid, tid, tagtime, loc);
	CREATE STREAM tag_readings(tagid, tagtype, tagtime);
	CREATE STREAM C1(readerid, tagid, tagtime);
	CREATE STREAM C2(readerid, tagid, tagtime);
	CREATE STREAM C3(readerid, tagid, tagtime);
	CREATE STREAM C4(readerid, tagid, tagtime);
	CREATE STREAM R1(readerid, tagid, tagtime);
	CREATE STREAM R2(readerid, tagid, tagtime);
	CREATE STREAM A1(readerid, tagid, tagtime);
	CREATE STREAM A2(readerid, tagid, tagtime);
	CREATE STREAM A3(readerid, tagid, tagtime);
	CREATE TABLE object_movement(tagid, location, start_time);
	CREATE INDEX ON object_movement(tagid);
	INSERT INTO object_movement VALUES ('20.1.5000', 'dock', 1);`

// fuzzValue is tuple i's value for column c: the same EPC code, an
// integer or NULL, cycling so equality joins, cross-kind comparisons and
// NULL propagation all occur. Time columns back-fill from the timestamp.
func fuzzValue(i, c int) stream.Value {
	switch (i + c) % 3 {
	case 0:
		return stream.Str("20.1.5000")
	case 1:
		return stream.Int(7)
	default:
		return stream.Null
	}
}

// FuzzCompileQuery drives arbitrary query text through the parser, the
// planner and the expression compiler, then runs whatever registers on
// three tuples per input stream and a heartbeat. Errors are fine; a panic
// is not — neither one escaping registration nor one that panic isolation
// would otherwise hide by quarantining the query.
func FuzzCompileQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, sql string) {
		e := New()
		if _, err := e.Exec(fuzzSchema); err != nil {
			t.Fatal(err)
		}
		q, err := e.RegisterQuery("fuzz", sql, func(Row) {})
		if err != nil {
			return
		}
		for i := 1; i <= 3; i++ {
			for _, name := range q.Reads() {
				sch, _ := e.StreamSchema(name)
				vals := make([]stream.Value, sch.Len())
				for c := range vals {
					if c != sch.TimeColumn() {
						vals[c] = fuzzValue(i, c)
					}
				}
				_ = e.Push(name, stream.TS(time.Duration(i)*time.Second), vals...)
			}
		}
		_ = e.Heartbeat(stream.TS(time.Hour))
		if quar, qerr := q.Quarantined(); quar {
			t.Fatalf("query %q quarantined: %v", sql, qerr)
		}
	})
}

// fuzzSeedQueries are the paper's example queries and every query of
// scripts/*.esl.
func fuzzSeedQueries(t *testing.T) []string {
	var seeds []string
	for name, q := range paperQueries {
		if !strings.HasPrefix(name, "schema_") {
			seeds = append(seeds, strings.TrimSuffix(strings.TrimSpace(q), ";"))
		}
	}
	scripts, err := filepath.Glob(filepath.Join("..", "..", "scripts", "*.esl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range scripts {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, stmt := range SplitStatements(string(src)) {
			up := strings.ToUpper(stmt)
			if strings.HasPrefix(up, "SELECT") || strings.HasPrefix(up, "INSERT") {
				seeds = append(seeds, stmt)
			}
		}
	}
	sort.Strings(seeds)
	return seeds
}

// TestGenerateSeedCorpus writes FuzzCompileQuery's seed corpus into
// testdata/fuzz. Run with GEN_FUZZ_CORPUS=1 after changing the paper
// queries or the scripts; committed corpus files keep `go test -fuzz`
// seeded identically everywhere.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCompileQuery")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, q := range fuzzSeedQueries(t) {
		body := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", q)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
