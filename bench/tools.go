package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ---- -selfcheck -------------------------------------------------------------

// runSelfcheck proves the checker can go red: a clean small run must pass,
// and the same run with one row dropped, one duplicated, and two reordered
// at the sink must each fail — the last specifically as out-of-order rows.
func runSelfcheck(base runConfig) error {
	w, err := findWorkload("core_serial")
	if err != nil {
		return err
	}
	base.w, base.phase, base.trace, base.rounds = w, "max", false, 1
	if base.scale == 1 {
		base.scale = 0.1
	}
	cases := []struct {
		name  string
		fault faultKind
	}{
		{"clean", faultNone}, {"drop one row", faultDrop}, {"duplicate one row", faultDup}, {"reorder two rows", faultSwap},
	}
	bad := 0
	for _, c := range cases {
		cfg := base
		cfg.fault = c.fault
		rep, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		frac := float64(rep.Failed) / float64(rep.Attempted)
		ok := rep.Correct == (c.fault == faultNone)
		if c.fault == faultSwap {
			ok = ok && strings.Contains(strings.Join(rep.Notes, "\n"), "out of timestamp order")
		}
		verdict := "as designed"
		if !ok {
			verdict = "SELFCHECK FAILED"
			bad++
		}
		fmt.Printf("selfcheck %-18s correct=%-5v row_error_frac=%.3g (%d of %d)  %s\n",
			c.name, rep.Correct, frac, rep.Failed, rep.Attempted, verdict)
		for _, n := range rep.Notes {
			if strings.HasPrefix(n, "FAIL:") {
				fmt.Println("    " + n)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d of %d cases did not behave as designed", bad, len(cases))
	}
	return nil
}

// ---- statistics -------------------------------------------------------------

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the default exclusive method), which is what the benchmark driver
// computes its spreads with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// ---- -calibrate -------------------------------------------------------------

// benchmarkFile mirrors BENCHMARK.json, key for key.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eDef      `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkJSON renders BENCHMARK.json from the definitions in this package
// and the given per-metric bounds.
func benchmarkJSON(bounds map[string]float64, runSeconds int) ([]byte, error) {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDef{w.name, w.why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, e2eDef{d.Name, d.Unit, d.Better, bounds[d.Name]})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(f, "", "  ")
	return append(b, '\n'), err
}

// findBenchmarkJSON locates BENCHMARK.json from the scratch directory, which
// sits under the checkout root.
func findBenchmarkJSON(scratch string) string {
	return filepath.Join(filepath.Dir(filepath.Dir(scratch)), "BENCHMARK.json")
}

// runCalibrate repeats every workload reps times untraced, each time with
// another seed and in a fresh process, prints median, quartiles and spread
// per end-to-end metric, and writes the bounds into BENCHMARK.json:
// max(starting bound, 3 x the widest spread over the workloads), at most
// maxBound — the driver wants every spread under a third of its bound. A
// spread above 0.10 has to be fixed in the harness, not covered by a bound;
// calibration then fails (after writing, so the numbers can be inspected).
func runCalibrate(base runConfig, reps int, jsonOut string) error {
	var all []*report
	worst := map[string]float64{}
	unsteady := 0
	for _, w := range workloads {
		if base.w != nil && base.w != w {
			continue
		}
		vals := map[string][]float64{}
		for i := 0; i < reps; i++ {
			cfg := base
			cfg.w, cfg.seed, cfg.trace = w, base.seed+int64(i), false
			rep, err := runChild(cfg, true)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("calibrate: %s seed %d failed its checks: %v", w.name, cfg.seed, rep.Notes)
			}
			all = append(all, rep)
			for _, d := range endToEnd {
				vals[d.Name] = append(vals[d.Name], rep.Metrics[d.Name].Value)
			}
		}
		fmt.Printf("%s  (%d runs, seeds %d..%d)\n", w.name, reps, base.seed, base.seed+int64(reps)-1)
		for _, d := range endToEnd {
			q1, _, q3 := quartiles(vals[d.Name])
			sp := spread(vals[d.Name])
			flag := ""
			if sp > worst[d.Name] {
				worst[d.Name] = sp
			}
			if sp > 0.10 {
				flag = "  UNSTEADY (> 0.10): fix the harness"
				unsteady++
			}
			fmt.Printf("  %-24s median %12.4f  q1 %12.4f  q3 %12.4f  IQR/median %.4f %s%s\n",
				d.Name, median(vals[d.Name]), q1, q3, sp, d.Unit, flag)
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, all); err != nil {
			return err
		}
	}
	if base.w != nil {
		return nil // a partial calibration says nothing about the other workloads' spreads
	}
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		b := math.Max(d.floor, math.Ceil(3*worst[d.Name]*100)/100)
		bounds[d.Name] = math.Min(b, maxBound)
	}
	out, err := benchmarkJSON(bounds, base.seconds)
	if err != nil {
		return err
	}
	path := findBenchmarkJSON(base.scratch)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("bounds written to %s\n", path)
	if unsteady > 0 {
		return fmt.Errorf("calibrate: %d metric x workload spreads exceed 0.10", unsteady)
	}
	return nil
}

// ---- -compare ---------------------------------------------------------------

func loadReports(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []*report
	if err := json.Unmarshal(b, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}

// compareFiles applies the measuring rule to two sets of untraced runs (a
// -json file holds any number): per workload and end-to-end metric, the i-th
// parent run pairs with the i-th change run. A gain is claimed only with at
// least ten pairs, the change winning nine tenths of the untied ones, and
// the medians further apart than the parent's own interquartile distance. A
// regression is a change median worse than the parent's by more than the
// metric's bound; where the parent's spread is itself wider than the bound
// the row is unresolved. Take the two files with alternating runs (parent,
// change, change, parent, ...). Returns false on any regression or failed
// run.
func compareFiles(parentPath, changePath string) (bool, error) {
	parent, err := loadReports(parentPath)
	if err != nil {
		return false, err
	}
	change, err := loadReports(changePath)
	if err != nil {
		return false, err
	}
	bounds, err := loadBounds()
	if err != nil {
		return false, err
	}
	group := func(reps []*report) (map[string][]*report, int) {
		g, bad := map[string][]*report{}, 0
		for _, r := range reps {
			g[r.Workload] = append(g[r.Workload], r)
			if !r.Correct {
				bad++
			}
		}
		return g, bad
	}
	pg, pbad := group(parent)
	cg, cbad := group(change)
	ok := true
	if pbad+cbad > 0 {
		fmt.Printf("failed runs: parent %d, change %d\n", pbad, cbad)
		ok = false
	}
	fmt.Printf("%-14s %-24s %5s %14s %14s %9s %7s  %s\n", "workload", "metric", "pairs", "parent median", "change median", "change", "wins", "verdict")
	for _, w := range workloads {
		p, c := pg[w.name], cg[w.name]
		pairs := len(p)
		if len(c) < pairs {
			pairs = len(c)
		}
		if pairs == 0 {
			continue
		}
		for _, d := range endToEnd {
			var pv, cv []float64
			wins, ties := 0, 0
			higher := d.Better == "higher"
			for i := 0; i < pairs; i++ {
				a, b := p[i].Metrics[d.Name].Value, c[i].Metrics[d.Name].Value
				pv, cv = append(pv, a), append(cv, b)
				switch {
				case a == b:
					ties++
				case (b > a) == higher:
					wins++
				}
			}
			pm, cm := median(pv), median(cv)
			q1, _, q3 := 0.0, 0.0, 0.0
			if pairs >= 2 {
				q1, _, q3 = quartiles(pv)
			}
			iqr := q3 - q1
			rel := (cm - pm) / pm
			worse := rel
			if higher {
				worse = -rel
			}
			bound := bounds[d.Name]
			verdict := "no change"
			switch {
			case pairs >= 2 && iqr/pm > bound:
				verdict = "unresolved (parent spread " + fmt.Sprintf("%.3f", iqr/pm) + " > bound)"
			case worse > bound:
				verdict = "REGRESSION (bound " + fmt.Sprintf("%.2f", bound) + ")"
				ok = false
			case pairs >= 10 && pairs-ties > 0 && float64(wins) >= 0.9*float64(pairs-ties) && math.Abs(cm-pm) > iqr:
				verdict = "gain"
			case pairs < 10 && worse < 0:
				verdict = "better, but fewer than 10 pairs"
			}
			fmt.Printf("%-14s %-24s %5d %14.4f %14.4f %+8.2f%% %4d/%-2d  %s\n",
				w.name, d.Name, pairs, pm, cm, 100*rel, wins, pairs-ties, verdict)
		}
	}
	return ok, nil
}

// loadBounds reads the end-to-end bounds from the BENCHMARK.json above the
// working directory, falling back to the starting bounds.
func loadBounds() (map[string]float64, error) {
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.Name] = d.floor
	}
	scratch, err := scratchDir()
	if err != nil {
		return bounds, nil
	}
	b, err := os.ReadFile(findBenchmarkJSON(scratch))
	if err != nil {
		return bounds, nil
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, d := range f.EndToEnd {
		bounds[d.Name] = d.Bound
	}
	return bounds, nil
}
