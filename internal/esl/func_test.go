package esl

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/epc"
	"repro/internal/stream"
)

// A constant-pattern epc_match call site runs its prepared form only while
// the registry still holds the entry it was prepared from: a registration
// made after the query — shadowing epc_match, then restoring it — takes
// effect on the next push.
func TestEPCMatchFollowsRegistry(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM s(tagid, ts);`)
	rows := collect(t, e, `SELECT tagid FROM s WHERE epc_match(tagid, '20.1.*')`)
	push := func(at time.Duration, tag string) { mustPush(t, e, "s", at, stream.Str(tag), stream.Null) }

	push(1*time.Second, "20.1.5") // matches
	push(2*time.Second, "21.1.5") // does not
	e.Funcs().Register("epc_match", func([]stream.Value) (stream.Value, error) { return stream.Bool(true), nil })
	push(3*time.Second, "21.1.6") // the replacement accepts everything
	e.Funcs().Register("EPC_MATCH", builtinFuncs.funcs["EPC_MATCH"].fn)
	push(4*time.Second, "21.1.7") // the built-in again: refused
	push(5*time.Second, "20.1.8")

	var got []string
	for _, r := range *rows {
		got = append(got, r.Vals[0].String())
	}
	if want := "[20.1.5 21.1.6 20.1.8]"; fmt.Sprint(got) != want {
		t.Fatalf("rows = %v, want %s", got, want)
	}
}

// A pattern read from a column (no prepared form: it compiles per call)
// selects the same rows as the same patterns written as literals.
func TestEPCMatchColumnPatternAgreesWithLiteral(t *testing.T) {
	patterns := []string{"20.*.[5000-9999]", "20.1.*", "*.*", "*.[10-20].*", "21.7.7"}
	codes := []string{"20.1.5000", "20.1.4999", "20.9.9999", "21.7.7", "urn:epc:id:sgtin:20.1.15",
		"1.15.x", "a.b", "20..1", "solo", ""}
	e := New()
	mustExec(t, e, `CREATE STREAM s(tagid, pat);`)
	var literal, column []string
	record := func(into *[]string) func(Row) {
		return func(r Row) { *into = append(*into, r.Vals[0].String()+" ~ "+r.Vals[1].String()) }
	}
	for i, p := range patterns {
		sql := fmt.Sprintf(`SELECT tagid, pat FROM s WHERE pat = '%s' AND epc_match(tagid, '%s')`, p, p)
		if _, err := e.RegisterQuery(fmt.Sprintf("lit%d", i), sql, record(&literal)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RegisterQuery("col", `SELECT tagid, pat FROM s WHERE epc_match(tagid, pat)`, record(&column)); err != nil {
		t.Fatal(err)
	}
	at := time.Duration(0)
	for _, c := range codes {
		for _, p := range patterns {
			at += time.Millisecond
			mustPush(t, e, "s", at, stream.Str(c), stream.Str(p))
		}
	}
	sort.Strings(literal)
	sort.Strings(column)
	if len(literal) == 0 || fmt.Sprint(literal) != fmt.Sprint(column) {
		t.Fatalf("literal patterns selected %v,\ncolumn patterns %v", literal, column)
	}
}

// A prepared call site evaluates its one column argument and calls the
// bound function: no argument slice, no pattern compile, no allocation.
func TestPreparedCallsDoNotAllocate(t *testing.T) {
	sch := stream.MustSchema("s", stream.Field{Name: "tagid"})
	tu := stream.MustTuple(sch, stream.TS(time.Second), stream.Str("20.1.7000"))
	for src, want := range map[string]stream.Value{
		"epc_match(tagid, '20.*.[5000-9999]')": stream.Bool(true),
		"extract_serial(tagid)":                stream.Int(7000),
	} {
		s, err := ParseOne("SELECT " + src + " FROM s")
		if err != nil {
			t.Fatal(err)
		}
		sc := newScope(NewFuncRegistry())
		sc.bind("s", sch)
		fn, err := compileExpr(s.(*Select).Items[0].Expr, sc)
		if err != nil {
			t.Fatal(err)
		}
		f := getFrame(1, nil)
		f.slots[0] = tu.Vals
		var got stream.Value
		allocs := testing.AllocsPerRun(100, func() { got, _ = fn(f) })
		putFrame(f)
		if !got.Equal(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", src, allocs)
		}
	}
}

// BenchmarkEPCFilters pushes 256-tuple batches through 64 constant-pattern
// epc_match filter-projections over 64 tags, each tag matching one filter.
//
//	go test -run '^$' -bench BenchmarkEPCFilters -benchmem ./internal/esl
func BenchmarkEPCFilters(b *testing.B) {
	const filters, batch = 64, 256
	e := New()
	if _, err := e.Exec(`CREATE STREAM C2(readerid, tagid, tagtime);`); err != nil {
		b.Fatal(err)
	}
	rows := 0
	for k := 0; k < filters; k++ {
		sql := fmt.Sprintf(`SELECT tagid, tagtime FROM C2 WHERE epc_match(tagid, '20.%d.*')`, 100+k)
		if _, err := e.RegisterQuery(fmt.Sprintf("f%02d", k), sql, func(Row) { rows++ }); err != nil {
			b.Fatal(err)
		}
	}
	schema, _ := e.StreamSchema("C2")
	items := make([]stream.Item, batch)
	for i := range items {
		tag := stream.Str(epc.Format(20, int64(100+i%filters), int64(7000+i%filters)))
		items[i] = stream.Of(stream.MustTuple(schema, 0, stream.Str("R1"), tag, stream.Null))
	}
	step := 10 * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		// The filters keep no tuple, so one batch is re-stamped and pushed
		// again rather than built per iteration.
		for i := range items {
			ts := stream.TS(time.Duration(n*batch+i) * step)
			items[i].Tuple.TS, items[i].TS = ts, ts
		}
		if err := e.PushBatch(items); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rows != b.N*batch {
		b.Fatalf("%d rows, want %d", rows, b.N*batch)
	}
}
