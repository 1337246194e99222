package esl

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/epc"
	"repro/internal/stream"
)

// ScalarFunc is a user-defined (or built-in) scalar function callable from
// queries. Errors surface as SQL NULL results with the error recorded on
// the query's diagnostics, matching the tolerant handling RFID cleaning
// pipelines need for malformed tags.
type ScalarFunc func(args []stream.Value) (stream.Value, error)

// boundFunc is a call site's prepared form of a function: the function of
// its one argument computed per call, with its literal arguments applied.
type boundFunc func(stream.Value) (stream.Value, error)

// funcEntry is one registered function. prepare, when set, binds a call
// site's literal arguments once, at registration: lits[i] is argument i's
// value when that argument is a literal and nil otherwise. It returns the
// one-value form when exactly one argument is not a literal, nil when it
// has none to offer, and an error for a literal the function can never
// accept. Entries and prepared forms are read only, so every engine that
// compiles a query may share them.
type funcEntry struct {
	fn      ScalarFunc
	prepare func(lits []*stream.Value) (boundFunc, error)
}

// FuncRegistry resolves scalar function names (case-insensitive). A
// registry chains to the built-ins, so user registrations shadow them.
type FuncRegistry struct {
	funcs map[string]*funcEntry
}

// NewFuncRegistry builds a registry pre-populated with the built-ins,
// including the paper's extract_serial UDF.
func NewFuncRegistry() *FuncRegistry {
	r := &FuncRegistry{funcs: make(map[string]*funcEntry)}
	for name, f := range builtinFuncs.funcs {
		r.funcs[name] = f
	}
	return r
}

// Register installs (or replaces) a scalar function.
func (r *FuncRegistry) Register(name string, f ScalarFunc) {
	r.funcs[strings.ToUpper(name)] = &funcEntry{fn: f}
}

// isAggregateName reports whether the name is a built-in aggregate (UDAs
// are resolved against the engine's aggregate registry during planning).
func isAggregateName(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	default:
		return false
	}
}

// errEPCMatchArgs is epc_match's failure on a non-string argument, in both
// its generic and its prepared form.
var errEPCMatchArgs = errors.New("epc_match needs string arguments")

// builtinFuncs are always available.
var builtinFuncs = &FuncRegistry{funcs: map[string]*funcEntry{
	// The paper's EPC helpers (Example 3 and the ALE pattern queries).
	"EXTRACT_SERIAL": unaryString("extract_serial", func(s string) (stream.Value, error) {
		n, err := epc.ExtractSerial(s)
		if err != nil {
			return stream.Null, err
		}
		return stream.Int(n), nil
	}),
	"EXTRACT_COMPANY": unaryString("extract_company", func(s string) (stream.Value, error) {
		c, err := epc.ExtractCompany(s)
		if err != nil {
			return stream.Null, err
		}
		return stream.Str(c), nil
	}),
	"EXTRACT_PRODUCT": unaryString("extract_product", func(s string) (stream.Value, error) {
		p, err := epc.ExtractProduct(s)
		if err != nil {
			return stream.Null, err
		}
		return stream.Str(p), nil
	}),
	// EPC_MATCH(code, pattern): ALE pattern matching as a UDF, e.g.
	// epc_match(tid, '20.*.[5000-9999]'). A literal pattern compiles once,
	// when the query registers, and a bad one fails the registration.
	"EPC_MATCH": {
		fn: func(args []stream.Value) (stream.Value, error) {
			if len(args) != 2 {
				return stream.Null, fmt.Errorf("epc_match needs 2 arguments")
			}
			code, ok1 := args[0].AsString()
			pat, ok2 := args[1].AsString()
			if !ok1 || !ok2 {
				return stream.Null, errEPCMatchArgs
			}
			p, err := epc.CompilePattern(pat)
			if err != nil {
				return stream.Null, err
			}
			return stream.Bool(p.Match(code)), nil
		},
		prepare: func(lits []*stream.Value) (boundFunc, error) {
			if len(lits) != 2 || lits[1] == nil {
				return nil, nil
			}
			pat, ok := lits[1].AsString()
			if !ok {
				return nil, nil
			}
			p, err := epc.CompilePattern(pat)
			if err != nil {
				return nil, fmt.Errorf("esl: epc_match pattern: %v", err)
			}
			if lits[0] != nil {
				return nil, nil
			}
			return func(v stream.Value) (stream.Value, error) {
				code, ok := v.AsString()
				if !ok {
					return stream.Null, errEPCMatchArgs
				}
				return stream.Bool(p.Match(code)), nil
			}, nil
		},
	},
	// Generic string/number helpers.
	"LENGTH": unaryString("length", func(s string) (stream.Value, error) {
		return stream.Int(int64(len(s))), nil
	}),
	"UPPER": unaryString("upper", func(s string) (stream.Value, error) {
		return stream.Str(strings.ToUpper(s)), nil
	}),
	"LOWER": unaryString("lower", func(s string) (stream.Value, error) {
		return stream.Str(strings.ToLower(s)), nil
	}),
	"ABS": unary("abs", func(v stream.Value) (stream.Value, error) {
		switch v.Kind() {
		case stream.KindInt:
			n, _ := v.AsInt()
			if n < 0 {
				n = -n
			}
			return stream.Int(n), nil
		case stream.KindFloat:
			f, _ := v.AsFloat()
			if f < 0 {
				f = -f
			}
			return stream.Float(f), nil
		case stream.KindNull:
			return stream.Null, nil
		default:
			return stream.Null, fmt.Errorf("abs on %s", v.Kind())
		}
	}),
	"COALESCE": {fn: func(args []stream.Value) (stream.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return stream.Null, nil
	}},
}}

// unary is the entry of a one-argument function: the generic form checks
// the arity, and a call site whose argument is not a literal is prepared to
// f itself, so its calls build no argument slice.
func unary(name string, f boundFunc) *funcEntry {
	return &funcEntry{
		fn: func(args []stream.Value) (stream.Value, error) {
			if len(args) != 1 {
				return stream.Null, fmt.Errorf("%s needs 1 argument", name)
			}
			return f(args[0])
		},
		prepare: func(lits []*stream.Value) (boundFunc, error) {
			if len(lits) != 1 || lits[0] != nil {
				return nil, nil
			}
			return f, nil
		},
	}
}

// unaryString is unary over one non-NULL string argument.
func unaryString(name string, f func(string) (stream.Value, error)) *funcEntry {
	return unary(name, func(v stream.Value) (stream.Value, error) {
		if v.IsNull() {
			return stream.Null, fmt.Errorf("%s of NULL", name)
		}
		s, ok := v.AsString()
		if !ok {
			return stream.Null, fmt.Errorf("%s needs a string argument", name)
		}
		return f(s)
	})
}
