package esl

import (
	"testing"
	"time"

	"repro/internal/stream"
)

// bound is one tuple visible under an alias to compileRun.
type bound struct {
	alias string
	t     *stream.Tuple
}

// compileRun compiles x in one scope over the given bindings (later ones
// shadow earlier ones for unqualified names) and evaluates it once. A
// compile-time error is returned just like an evaluation error.
func compileRun(x Expr, binds ...bound) (stream.Value, error) {
	sc := newScope(nil)
	f := getFrame(len(binds), nil)
	defer putFrame(f)
	for i, b := range binds {
		sc.bind(b.alias, b.t.Schema)
		f.slots[i] = b.t.Vals
	}
	fn, err := compileExpr(x, sc)
	if err != nil {
		return stream.Null, err
	}
	return fn(f)
}

// evalExpr evaluates a standalone expression with an optional bound tuple.
func evalExpr(t *testing.T, exprSQL string, tuple *stream.Tuple, alias string) stream.Value {
	t.Helper()
	s, err := ParseOne("SELECT " + exprSQL + " FROM dual")
	if err != nil {
		t.Fatalf("parse %q: %v", exprSQL, err)
	}
	var binds []bound
	if tuple != nil {
		binds = append(binds, bound{alias, tuple})
	}
	v, err := compileRun(s.(*Select).Items[0].Expr, binds...)
	if err != nil {
		t.Fatalf("eval %q: %v", exprSQL, err)
	}
	return v
}

func TestArithmeticAndComparison(t *testing.T) {
	cases := map[string]stream.Value{
		"1 + 2":                 stream.Int(3),
		"7 - 2 * 3":             stream.Int(1),
		"(7 - 2) * 3":           stream.Int(15),
		"7 / 2":                 stream.Int(3),
		"7.0 / 2":               stream.Float(3.5),
		"7 % 3":                 stream.Int(1),
		"-5 + 2":                stream.Int(-3),
		"1 / 0":                 stream.Null, // SQL-ish: NULL, not panic
		"5 % 0":                 stream.Null,
		"1 < 2":                 stream.Bool(true),
		"2 <= 2":                stream.Bool(true),
		"3 <> 4":                stream.Bool(true),
		"3 != 4":                stream.Bool(true),
		"'a' < 'b'":             stream.Bool(true),
		"2 BETWEEN 1 AND 3":     stream.Bool(true),
		"0 NOT BETWEEN 1 AND 3": stream.Bool(true),
		"NULL IS NULL":          stream.Bool(true),
		"1 IS NOT NULL":         stream.Bool(true),
		"'a' || 'b'":            stream.Str("ab"),
		"1 || 'b'":              stream.Str("1b"),
		"TRUE AND FALSE":        stream.Bool(false),
		"TRUE OR FALSE":         stream.Bool(true),
		"NOT TRUE":              stream.Bool(false),
	}
	for src, want := range cases {
		got := evalExpr(t, src, nil, "")
		if !got.Equal(want) || got.IsNull() != want.IsNull() {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	// NULL short-circuits per Kleene logic.
	cases := map[string]stream.Value{
		"NULL AND TRUE":  stream.Null,
		"NULL AND FALSE": stream.Bool(false),
		"FALSE AND NULL": stream.Bool(false),
		"NULL OR TRUE":   stream.Bool(true),
		"TRUE OR NULL":   stream.Bool(true),
		"NULL OR FALSE":  stream.Null,
		"NOT NULL":       stream.Null,
		"NULL = 1":       stream.Null,
		"NULL + 1":       stream.Null,
	}
	for src, want := range cases {
		got := evalExpr(t, src, nil, "")
		if got.IsNull() != want.IsNull() || (!want.IsNull() && !got.Equal(want)) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestLikeMatching(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"20.123.456", "20.%.%", true},
		{"21.123.456", "20.%.%", false},
		{"abc", "abc", true},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"hello world", "%world", true},
		{"hello world", "hello%", true},
		{"hello world", "%lo wo%", true},
		{"aaa", "a%a", true},
		{"ab", "a%b%c", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.pat, got)
		}
	}
}

// LIKE's _ stands for one character, however many UTF-8 bytes encode it,
// and a % in the pattern is the wildcard even where the text holds a %.
func TestLikeMatchesCharacters(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"é", "_", true},
		{"aé", "a_", true},
		{"é", "__", false},
		{"aéb", "%_b", true},
		{"€x", "%__x", false},
		{"%abc", "%", true},
		{"%abc", "%c", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	sch := stream.MustSchema("s", stream.Field{Name: "a"}, stream.Field{Name: "tagtime"})
	tu := stream.MustTuple(sch, stream.TS(10*time.Second), stream.Int(1), stream.Null)
	// Time - Time -> duration (ns), comparable with INTERVAL.
	v := evalExpr(t, "s.tagtime - s.tagtime", tu, "s")
	if n, _ := v.AsInt(); n != 0 {
		t.Errorf("self-difference = %v", v)
	}
	v = evalExpr(t, "s.tagtime + 5 SECONDS", tu, "s")
	if ts, ok := v.AsTime(); !ok || ts != stream.TS(15*time.Second) {
		t.Errorf("time + interval = %v", v)
	}
	v = evalExpr(t, "s.tagtime - 5 SECONDS", tu, "s")
	if ts, ok := v.AsTime(); !ok || ts != stream.TS(5*time.Second) {
		t.Errorf("time - interval = %v", v)
	}
	// Interval literal itself.
	v = evalExpr(t, "90 SECONDS", nil, "")
	if n, _ := v.AsInt(); n != int64(90*time.Second) {
		t.Errorf("interval = %v", v)
	}
	v = evalExpr(t, "1.5 MINUTES", nil, "")
	if n, _ := v.AsInt(); n != int64(90*time.Second) {
		t.Errorf("fractional interval = %v", v)
	}
}

func TestColumnResolution(t *testing.T) {
	sch := stream.MustSchema("s", stream.Field{Name: "a"}, stream.Field{Name: "b"})
	tu := stream.MustTuple(sch, 0, stream.Int(1), stream.Int(2))
	if v := evalExpr(t, "s.a + s.b", tu, "s"); !v.Equal(stream.Int(3)) {
		t.Errorf("qualified = %v", v)
	}
	if v := evalExpr(t, "a + b", tu, "s"); !v.Equal(stream.Int(3)) {
		t.Errorf("unqualified = %v", v)
	}
	// Unknown columns error (at compile time).
	s := bound{"s", tu}
	if _, err := compileRun(&ColRef{Qualifier: "s", Name: "zz"}, s); err == nil {
		t.Error("unknown qualified column should error")
	}
	if _, err := compileRun(&ColRef{Name: "zz"}, s); err == nil {
		t.Error("unknown unqualified column should error")
	}
	if _, err := compileRun(&ColRef{Qualifier: "nope", Name: "a"}, s); err == nil {
		t.Error("unknown qualifier should error")
	}
}

func TestScopeShadowing(t *testing.T) {
	sch := stream.MustSchema("x", stream.Field{Name: "v"})
	outerT := stream.MustTuple(sch, 0, stream.Int(1))
	innerT := stream.MustTuple(sch, 0, stream.Int(2))
	outer := newScope(nil, aliasSchema{alias: "o", schema: sch})
	inner := outer.child(aliasSchema{alias: "i", schema: sch})
	of := getFrame(1, nil)
	defer putFrame(of)
	of.slots[0] = outerT.Vals
	inf := getFrame(1, of)
	defer putFrame(inf)
	inf.slots[0] = innerT.Vals
	run := func(x Expr) (stream.Value, error) {
		fn, err := compileExpr(x, inner)
		if err != nil {
			return stream.Null, err
		}
		return fn(inf)
	}
	// Unqualified resolves innermost-first.
	v, err := run(&ColRef{Name: "v"})
	if err != nil || !v.Equal(stream.Int(2)) {
		t.Errorf("inner-first resolution: %v, %v", v, err)
	}
	// Outer still reachable by qualifier.
	v, _ = run(&ColRef{Qualifier: "o", Name: "v"})
	if !v.Equal(stream.Int(1)) {
		t.Errorf("outer qualified: %v", v)
	}
}

func TestScalarFunctions(t *testing.T) {
	cases := map[string]stream.Value{
		"extract_serial('20.1.555')":                 stream.Int(555),
		"extract_company('20.1.555')":                stream.Str("20"),
		"extract_product('20.1.555')":                stream.Str("1"),
		"extract_serial('garbage')":                  stream.Null, // failure -> NULL
		"epc_match('20.1.5555', '20.*.[5000-9999]')": stream.Bool(true),
		"epc_match('20.1.4', '20.*.[5000-9999]')":    stream.Bool(false),
		"length('abc')":                              stream.Int(3),
		"upper('ab')":                                stream.Str("AB"),
		"lower('AB')":                                stream.Str("ab"),
		"abs(-3)":                                    stream.Int(3),
		"abs(-2.5)":                                  stream.Float(2.5),
		"coalesce(NULL, 2, 3)":                       stream.Int(2),
	}
	for src, want := range cases {
		got := evalExpr(t, src, nil, "")
		if got.IsNull() != want.IsNull() || (!want.IsNull() && !got.Equal(want)) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestUserDefinedFunction(t *testing.T) {
	e := New()
	e.Funcs().Register("double_it", func(args []stream.Value) (stream.Value, error) {
		n, _ := args[0].AsInt()
		return stream.Int(2 * n), nil
	})
	mustExec(t, e, `CREATE STREAM s(v, ts);`)
	rows := collect(t, e, `SELECT double_it(v) FROM s WHERE double_it(v) > 5`)
	mustPush(t, e, "s", time.Second, stream.Int(2), stream.Null)   // 4: filtered
	mustPush(t, e, "s", 2*time.Second, stream.Int(5), stream.Null) // 10: kept
	if len(*rows) != 1 || !(*rows)[0].Vals[0].Equal(stream.Int(10)) {
		t.Fatalf("rows = %v", *rows)
	}
}

// Functions resolve per call: a UDF registered (or replaced) after the
// query that calls it still takes effect.
func TestUDFResolvedPerCall(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE STREAM s(v, ts);`)
	rows := collect(t, e, `SELECT late_fn(v) FROM s`)
	if err := e.Push("s", ts(time.Second), stream.Int(1), stream.Null); err == nil {
		t.Fatal("calling an unregistered function should error")
	}
	e.Funcs().Register("late_fn", func(args []stream.Value) (stream.Value, error) { return stream.Int(1), nil })
	mustPush(t, e, "s", 2*time.Second, stream.Int(1), stream.Null)
	e.Funcs().Register("late_fn", func(args []stream.Value) (stream.Value, error) { return stream.Int(2), nil })
	mustPush(t, e, "s", 3*time.Second, stream.Int(1), stream.Null)
	if len(*rows) != 2 || !(*rows)[0].Vals[0].Equal(stream.Int(1)) || !(*rows)[1].Vals[0].Equal(stream.Int(2)) {
		t.Fatalf("rows = %v", *rows)
	}
}

func TestUnknownFunctionErrors(t *testing.T) {
	if _, err := compileRun(&Call{Name: "NOPE"}); err == nil {
		t.Error("unknown function should error")
	}
	if _, err := compileRun(&Call{Name: "SUM", Args: []Expr{&Literal{Val: stream.Int(1)}}}); err == nil {
		t.Error("aggregate outside aggregation context should error")
	}
}
