package esl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stream"
)

// genExpr builds a random expression tree of bounded depth over columns
// a, b, c.
func genExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch rng.Intn(5) {
		case 0:
			return &Literal{Val: stream.Int(int64(rng.Intn(100)))}
		case 1:
			return &Literal{Val: stream.Float(float64(rng.Intn(100)) + 0.5)}
		case 2:
			return &Literal{Val: stream.Str(fmt.Sprintf("s%d", rng.Intn(10)))}
		case 3:
			return &ColRef{Name: []string{"a", "b", "c"}[rng.Intn(3)]}
		default:
			return &ColRef{Qualifier: "t", Name: []string{"a", "b", "c"}[rng.Intn(3)]}
		}
	}
	switch rng.Intn(8) {
	case 0:
		return &Binary{Op: []string{"+", "-", "*", "/", "%"}[rng.Intn(5)],
			L: genExpr(rng, depth-1), R: genExpr(rng, depth-1)}
	case 1:
		return &Binary{Op: []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)],
			L: genExpr(rng, depth-1), R: genExpr(rng, depth-1)}
	case 2:
		return &Binary{Op: []string{"AND", "OR"}[rng.Intn(2)],
			L: genExpr(rng, depth-1), R: genExpr(rng, depth-1)}
	case 3:
		return &Unary{Op: "NOT", X: genExpr(rng, depth-1)}
	case 4:
		return &Between{X: genExpr(rng, depth-1), Lo: genExpr(rng, depth-1),
			Hi: genExpr(rng, depth-1), Negate: rng.Intn(2) == 0}
	case 5:
		return &IsNull{X: genExpr(rng, depth-1), Negate: rng.Intn(2) == 0}
	case 6:
		return &Binary{Op: "LIKE", L: genExpr(rng, depth-1),
			R: &Literal{Val: stream.Str("s%")}}
	default:
		nargs := rng.Intn(3)
		c := &Call{Name: "COALESCE"}
		for i := 0; i <= nargs; i++ {
			c.Args = append(c.Args, genExpr(rng, depth-1))
		}
		return c
	}
}

// Property: printing any generated expression and reparsing it yields a
// print-identical tree (the printer emits valid, unambiguous ESL-EV).
func TestExprPrintParseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 3)
		printed := ExprString(e)
		s, err := ParseOne("SELECT " + printed + " FROM t")
		if err != nil {
			t.Logf("parse failed for %q: %v", printed, err)
			return false
		}
		again := ExprString(s.(*Select).Items[0].Expr)
		if again != printed {
			t.Logf("not a fixpoint:\n  %s\n  %s", printed, again)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: evaluating any generated expression over a fixed row either
// yields a value or a typed error — never a panic.
func TestExprEvalNeverPanicsProperty(t *testing.T) {
	sch := stream.MustSchema("t",
		stream.Field{Name: "a"}, stream.Field{Name: "b"}, stream.Field{Name: "c"})
	tu := stream.MustTuple(sch, 0, stream.Int(1), stream.Float(2.5), stream.Str("x"))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := genExpr(rng, 4)
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %s: %v", ExprString(e), r)
			}
		}()
		compileRun(e, bound{"t", tu}) // error or value both fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// genPred builds a step-filter conjunct: half the time one of the shapes
// compilePred fuses (column against a constant, either side, BETWEEN
// constants, IS [NOT] NULL — NULL and cross-kind constants included), else
// a general generated expression.
func genPred(rng *rand.Rand) Expr {
	col := &ColRef{Name: []string{"a", "b", "c"}[rng.Intn(3)]}
	if rng.Intn(2) == 0 {
		col.Qualifier = "t"
	}
	lit := func() Expr {
		switch rng.Intn(5) {
		case 0:
			return &Literal{Val: stream.Null}
		case 1:
			return &Interval{D: time.Duration(rng.Intn(3)) * time.Second}
		default:
			return genExpr(rng, 0)
		}
	}
	constant := func() Expr {
		for {
			if x := lit(); !isColRef(x) {
				return x
			}
		}
	}
	switch rng.Intn(8) {
	case 0, 1:
		op := []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)]
		return &Binary{Op: op, L: col, R: constant()}
	case 2:
		op := []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)]
		return &Binary{Op: op, L: constant(), R: col}
	case 3:
		return &Between{X: col, Lo: constant(), Hi: constant(), Negate: rng.Intn(2) == 0}
	case 4:
		return &IsNull{X: col, Negate: rng.Intn(2) == 0}
	default:
		return genExpr(rng, 3)
	}
}

func isColRef(x Expr) bool {
	_, ok := x.(*ColRef)
	return ok
}

// Property: a step filter from compilePred — fused shape or not — accepts a
// tuple exactly when the general compiled expression is known TRUE on it,
// over tuples mixing NULLs and cross-kind values.
func TestCompilePredAgreesWithCompileProperty(t *testing.T) {
	sch := stream.MustSchema("t",
		stream.Field{Name: "a"}, stream.Field{Name: "b"}, stream.Field{Name: "c"})
	tuples := []*stream.Tuple{
		{Schema: sch, Vals: []stream.Value{stream.Int(1), stream.Float(2.5), stream.Str("x")}},
		{Schema: sch, Vals: []stream.Value{stream.Null, stream.Int(50), stream.Str("s1")}},
		{Schema: sch, Vals: []stream.Value{stream.Str("s3"), stream.Null, stream.Float(7.5)}},
		{Schema: sch, Vals: []stream.Value{stream.Bool(true), stream.Time(stream.TS(time.Second)), stream.Null}},
		{Schema: sch, Vals: []stream.Value{stream.Int(int64(time.Second)), stream.Str("s0"), stream.Int(99)}},
	}
	sc := newScope(nil, aliasSchema{alias: "t", schema: sch})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := genPred(rng)
		cp, err := compilePred(x, sc)
		if err != nil {
			t.Logf("compilePred(%s): %v", ExprString(x), err)
			return false
		}
		for _, tu := range tuples {
			v, err := compileRun(x, bound{"t", tu})
			b, isBool := v.AsBool()
			want := err == nil && !v.IsNull() && isBool && b
			if got := cp.fn(tu); got != want {
				t.Logf("%s on %v: filter %v, expression %v (%v)", ExprString(x), tu, got, v, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the lexer never panics and always terminates on arbitrary
// printable input.
func TestLexerRobustnessProperty(t *testing.T) {
	alphabet := "SELECT FROM WHERE ab12._,;()*<>='x%[]{}+-/| \n\t"
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var b strings.Builder
		for i := 0; i < int(n); i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("lexer panic on %q: %v", b.String(), r)
			}
		}()
		Lex(b.String()) // error is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the parser never panics on random token-ish text.
func TestParserRobustnessProperty(t *testing.T) {
	words := []string{
		"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "EXISTS", "SEQ",
		"OVER", "MODE", "RECENT", "(", ")", "[", "]", ",", ";", "*",
		"a", "b", "t", "1", "'s'", "5", "SECONDS", "PRECEDING", "FOLLOWING",
		"GROUP", "BY", "HAVING", "ORDER", "LIMIT", "INSERT", "INTO", "=", "<=",
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var parts []string
		for i := 0; i < int(n)%40; i++ {
			parts = append(parts, words[rng.Intn(len(words))])
		}
		src := strings.Join(parts, " ")
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("parser panic on %q: %v", src, r)
			}
		}()
		Parse(src) // error is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Error(err)
	}
}
