package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The tests run every workload at 1/200 of its frozen size — a one-second run
// at a twentieth of the scale — and one round of phases, not five.
const (
	testSeconds = 1
	testScale   = 1.0 / 20
)

func smallRun(t *testing.T, name string, seed int64, traced bool) *report {
	t.Helper()
	return smallPhase(t, name, seed, traced, "")
}

// smallPhase restricts an untraced run to one phase ("" = both).
func smallPhase(t *testing.T, name string, seed int64, traced bool, phase string) *report {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(runConfig{w: w, seed: seed, seconds: testSeconds, scale: testScale, rounds: 1, trace: traced, phase: phase, scratch: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep := smallRun(t, w.name, 1, false)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d notes=%v", rep.Correct, rep.Failed, rep.Attempted, rep.Notes)
			}
			for _, d := range endToEnd {
				if m, ok := rep.Metrics[d.Name]; !ok || m.Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", d.Name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunsEmitEveryLayerMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			rep := smallRun(t, w.name, 1, true)
			if !rep.Correct {
				t.Fatalf("traced run failed: %v", rep.Notes)
			}
			for _, d := range perLayer {
				m, ok := rep.Metrics[d.Name]
				if !ok {
					t.Errorf("%s missing", d.Name)
				} else if m.NA == "not measured" {
					t.Errorf("%s neither measured nor marked n/a with a reason", d.Name)
				}
			}
		})
	}
}

// Same seed, same bytes and same rows; another seed, other bytes, and the
// checks still hold.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"core_serial", "fanout_route", "dirty_durable"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a, b, c := smallPhase(t, name, 7, false, "max"), smallPhase(t, name, 7, false, "max"), smallPhase(t, name, 8, false, "max")
			if a.InputHash != b.InputHash || a.RowHash != b.RowHash {
				t.Errorf("seed 7 twice: input %s/%s rows %s/%s", a.InputHash, b.InputHash, a.RowHash, b.RowHash)
			}
			if a.InputHash == c.InputHash {
				t.Errorf("seeds 7 and 8 produced the same bytes (%s)", a.InputHash)
			}
			if !c.Correct {
				t.Errorf("seed 8 failed its checks: %v", c.Notes)
			}
		})
	}
}

// The three core topologies are fed identical bytes and must deliver the
// identical row multiset.
func TestCoreTopologiesAgree(t *testing.T) {
	t.Parallel()
	serial := smallPhase(t, "core_serial", 3, false, "max")
	for _, name := range []string{"core_shard2", "core_cluster2"} {
		rep := smallPhase(t, name, 3, false, "max")
		if rep.InputHash != serial.InputHash || rep.RowHash != serial.RowHash {
			t.Errorf("%s: input %s rows %s, serial has %s / %s", name, rep.InputHash, rep.RowHash, serial.InputHash, serial.RowHash)
		}
	}
}

func TestSelfcheckGoesRed(t *testing.T) {
	t.Parallel()
	if err := runSelfcheck(runConfig{seed: 1, seconds: testSeconds, scale: 0.2, scratch: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads and
// metrics this package defines, within the driver's limits.
func TestBenchmarkJSONInSync(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory:", err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) || len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the package defines %d, %d, %d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, package has %q", i, f.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for i, d := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("end_to_end %d: file has %+v, package has %+v", i, g, d.metricDef)
		}
		if g.Bound <= 0 || g.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", g.Name, g.Bound, maxBound)
		}
		hasSetup = hasSetup || (g.Name == "setup_s" && g.Unit == "s" && g.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	for i, d := range perLayer {
		if g := f.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer %d: file has %+v, package has %+v", i, g, d)
		}
		if len(d.Unit) > 16 || len(d.Name) > 64 {
			t.Errorf("%s: name or unit too long", d.Name)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
}

// The driver line carries exactly the metrics BENCHMARK.json promises for
// the run's mode.
func TestDriverLineKeys(t *testing.T) {
	t.Parallel()
	rep := smallRun(t, "fanout_route", 1, false)
	var line struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(driverLine(rep, false)), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(endToEnd) || !line.Correct || line.Attempted < 1 {
		t.Fatalf("driver line %+v", line)
	}
	for _, d := range endToEnd {
		if _, ok := line.Metrics[d.Name]; !ok {
			t.Errorf("driver line lacks %s", d.Name)
		}
	}
}
