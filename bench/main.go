// Command bench is the repository's one end-to-end benchmark: it generates
// each workload from a seed, drives it as encoded bytes through decode →
// engine → sink, checks the rows against a reference, and prints every
// metric by name with its unit. See README.md in this directory.
//
// The benchmark driver calls it once per run:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload it runs
// every workload, each in a fresh child process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same input bytes")
		seconds      = flag.Int("seconds", 15, "run length; event counts scale with it")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run plus layer probes, per-layer metrics")
		phase        = flag.String("phase", "", "untraced runs only: restrict to the max or the paced phase")
		jsonOut      = flag.String("json", "", "also write the full report(s) to this file")
		traceOut     = flag.String("trace-out", "", "traced runs: write Chrome trace-event JSON here (open in Perfetto)")
		selfcheck    = flag.Bool("selfcheck", false, "corrupt the sink three ways and require the checker to notice each")
		calibrate    = flag.Int("calibrate", 0, "run every workload N times untraced, print spreads, write bounds into BENCHMARK.json")
		compare      = flag.Bool("compare", false, "compare two -json result files: bench -compare parent.json change.json")
	)
	flag.Parse()
	scratch, err := scratchDir()
	if err != nil {
		fatal(err)
	}
	base := runConfig{seed: *seed, seconds: *seconds, scale: 1, trace: *trace != 0,
		phase: *phase, scratch: scratch, traceOut: *traceOut}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *selfcheck:
		if err := runSelfcheck(base); err != nil {
			fatal(err)
		}
	case *calibrate > 0:
		if *workloadName != "" {
			if base.w, err = findWorkload(*workloadName); err != nil {
				fatal(err)
			}
		}
		if err := runCalibrate(base, *calibrate, *jsonOut); err != nil {
			fatal(err)
		}
	case *workloadName != "":
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatal(err)
		}
		base.w = w
		rep, err := runWorkload(base)
		if err != nil {
			fatal(err)
		}
		printReport(os.Stdout, rep)
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, []*report{rep}); err != nil {
				fatal(err)
			}
		}
		// The driver reads this line; nothing may follow it.
		fmt.Println(driverLine(rep, base.trace))
		if !rep.Correct {
			os.Exit(1)
		}
	default:
		reps, err := runAll(base)
		if *jsonOut != "" && len(reps) > 0 {
			if werr := writeJSON(*jsonOut, reps); werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// scratchDir is where journals, traces and child results go: .bench_build
// beside BENCHMARK.json when the checkout root can be found from the working
// directory, else under the working directory itself.
func scratchDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	root := wd
	for d := wd; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			root = d
			break
		}
		if d == filepath.Dir(d) {
			break
		}
	}
	dir := filepath.Join(root, ".bench_build", "scratch")
	return dir, os.MkdirAll(dir, 0o755)
}

// driverLine renders the one-line result the benchmark driver parses:
// end-to-end metrics for an untraced run, per-layer metrics for a traced one.
func driverLine(rep *report, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]mv{}}
	if traced {
		for _, d := range perLayer {
			out.Metrics[d.Name] = mv{rep.Metrics[d.Name].Value, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			out.Metrics[d.Name] = mv{rep.Metrics[d.Name].Value, d.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

func printReport(w *os.File, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  events %d  input %s  rows %s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Events, rep.InputHash, rep.RowHash)
	fmt.Fprintf(w, "env: nproc %d  GOMAXPROCS %d  %s  %s  loadavg %s\n", e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.LoadAvg)
	for _, name := range rep.order {
		m := rep.Metrics[name]
		if m.NA != "" {
			fmt.Fprintf(w, "  %-40s %14s %-9s (%s)\n", name, "n/a", m.Unit, m.NA)
			continue
		}
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "  "+n)
	}
	status := "ok"
	if !rep.Correct {
		status = "FAILED"
	}
	frac := 0.0
	if rep.Attempted > 0 {
		frac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "  check %s: row_error_frac %.6g (%d failed of %d attempted)\n", status, frac, rep.Failed, rep.Attempted)
}

func writeJSON(path string, reps []*report) error {
	b, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runChild runs one workload in a fresh process of this binary — clean GC
// state, clean peak RSS — and returns its full report.
func runChild(cfg runConfig, quiet bool) (*report, error) {
	out := filepath.Join(cfg.scratch, fmt.Sprintf("child-%d-%s.json", os.Getpid(), cfg.w.name))
	defer os.Remove(out)
	args := []string{
		"--workload", cfg.w.name, "--seed", fmt.Sprint(cfg.seed), "--seconds", fmt.Sprint(cfg.seconds),
		"--json", out,
	}
	if cfg.trace {
		args = append(args, "--trace", "1")
	}
	if cfg.phase != "" {
		args = append(args, "--phase", cfg.phase)
	}
	if cfg.traceOut != "" {
		args = append(args, "--trace-out", strings.TrimSuffix(cfg.traceOut, ".json")+"-"+cfg.w.name+".json")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	var sb strings.Builder
	cmd.Stdout = &sb
	runErr := cmd.Run()
	if !quiet {
		// Everything but the driver line, which is for machines.
		text := strings.TrimRight(sb.String(), "\n")
		if i := strings.LastIndexByte(text, '\n'); i >= 0 {
			fmt.Println(text[:i])
		}
	}
	b, err := os.ReadFile(out)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", cfg.w.name, runErr)
		}
		return nil, err
	}
	var reps []*report
	if err := json.Unmarshal(b, &reps); err != nil || len(reps) != 1 {
		return nil, fmt.Errorf("%s: bad child report: %v", cfg.w.name, err)
	}
	return reps[0], nil
}

// runAll runs every workload, untraced or traced as asked, and fails if any
// check failed.
func runAll(base runConfig) ([]*report, error) {
	var reps []*report
	bad := 0
	for _, w := range workloads {
		cfg := base
		cfg.w = w
		rep, err := runChild(cfg, false)
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
		if !rep.Correct {
			bad++
		}
		fmt.Println()
	}
	if bad > 0 {
		return reps, fmt.Errorf("%d of %d workloads failed their checks", bad, len(reps))
	}
	return reps, nil
}
