package esl

import (
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

// FuncRegistry resolves scalar function names (case-insensitive). A
// registry chains to the built-ins, so user registrations shadow them.
type FuncRegistry struct {
	funcs map[string]ScalarFunc
}

// NewFuncRegistry builds a registry pre-populated with the built-ins,
// including the paper's extract_serial UDF.
func NewFuncRegistry() *FuncRegistry {
	r := &FuncRegistry{funcs: make(map[string]ScalarFunc)}
	for name, f := range builtinFuncs.funcs {
		r.funcs[name] = f
	}
	return r
}

// Register installs (or replaces) a scalar function.
func (r *FuncRegistry) Register(name string, f ScalarFunc) {
	r.funcs[strings.ToUpper(name)] = f
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

// builtinFuncs are always available.
var builtinFuncs = &FuncRegistry{funcs: map[string]ScalarFunc{
	// The paper's EPC helpers (Example 3 and the ALE pattern queries).
	"EXTRACT_SERIAL": func(args []stream.Value) (stream.Value, error) {
		s, err := oneString("extract_serial", args)
		if err != nil {
			return stream.Null, err
		}
		n, err := epc.ExtractSerial(s)
		if err != nil {
			return stream.Null, err
		}
		return stream.Int(n), nil
	},
	"EXTRACT_COMPANY": func(args []stream.Value) (stream.Value, error) {
		s, err := oneString("extract_company", args)
		if err != nil {
			return stream.Null, err
		}
		c, err := epc.ExtractCompany(s)
		if err != nil {
			return stream.Null, err
		}
		return stream.Str(c), nil
	},
	"EXTRACT_PRODUCT": func(args []stream.Value) (stream.Value, error) {
		s, err := oneString("extract_product", args)
		if err != nil {
			return stream.Null, err
		}
		p, err := epc.ExtractProduct(s)
		if err != nil {
			return stream.Null, err
		}
		return stream.Str(p), nil
	},
	// EPC_MATCH(code, pattern): ALE pattern matching as a UDF, e.g.
	// epc_match(tid, '20.*.[5000-9999]').
	"EPC_MATCH": func(args []stream.Value) (stream.Value, error) {
		if len(args) != 2 {
			return stream.Null, fmt.Errorf("epc_match needs 2 arguments")
		}
		code, ok1 := args[0].AsString()
		pat, ok2 := args[1].AsString()
		if !ok1 || !ok2 {
			return stream.Null, fmt.Errorf("epc_match needs string arguments")
		}
		p, err := epc.CompilePattern(pat)
		if err != nil {
			return stream.Null, err
		}
		return stream.Bool(p.Match(code)), nil
	},
	// Generic string/number helpers.
	"LENGTH": func(args []stream.Value) (stream.Value, error) {
		s, err := oneString("length", args)
		if err != nil {
			return stream.Null, err
		}
		return stream.Int(int64(len(s))), nil
	},
	"UPPER": func(args []stream.Value) (stream.Value, error) {
		s, err := oneString("upper", args)
		if err != nil {
			return stream.Null, err
		}
		return stream.Str(strings.ToUpper(s)), nil
	},
	"LOWER": func(args []stream.Value) (stream.Value, error) {
		s, err := oneString("lower", args)
		if err != nil {
			return stream.Null, err
		}
		return stream.Str(strings.ToLower(s)), nil
	},
	"ABS": func(args []stream.Value) (stream.Value, error) {
		if len(args) != 1 {
			return stream.Null, fmt.Errorf("abs needs 1 argument")
		}
		switch args[0].Kind() {
		case stream.KindInt:
			n, _ := args[0].AsInt()
			if n < 0 {
				n = -n
			}
			return stream.Int(n), nil
		case stream.KindFloat:
			f, _ := args[0].AsFloat()
			if f < 0 {
				f = -f
			}
			return stream.Float(f), nil
		case stream.KindNull:
			return stream.Null, nil
		default:
			return stream.Null, fmt.Errorf("abs on %s", args[0].Kind())
		}
	},
	"COALESCE": func(args []stream.Value) (stream.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return stream.Null, nil
	},
}}

func oneString(name string, args []stream.Value) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("%s needs 1 argument", name)
	}
	if args[0].IsNull() {
		return "", fmt.Errorf("%s of NULL", name)
	}
	s, ok := args[0].AsString()
	if !ok {
		return "", fmt.Errorf("%s needs a string argument", name)
	}
	return s, nil
}
