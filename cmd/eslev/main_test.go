package main

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	eslev "repro"
)

// The README promises the §3.1.1 walkthrough byte-for-byte; the golden file
// is that promise. Regenerate it only for an intended change, with
// `go run ./cmd/eslev demo modes > cmd/eslev/testdata/demo_modes.golden`.
func TestDemoModesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/demo_modes.golden")
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		var got bytes.Buffer
		if err := demoModes(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("run %d differs from testdata/demo_modes.golden:\n%s", run, got.String())
		}
	}
}

// `eslev explain` output for every shipped script, byte for byte. Regenerate
// a golden only for an intended plan change, with
// `go run ./cmd/eslev explain scripts/<name>.esl > cmd/eslev/testdata/explain_<name>.golden`.
func TestExplainGolden(t *testing.T) {
	for _, name := range []string{"clinic", "containment", "dedup", "speculation"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile("testdata/explain_" + name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := explainScript(&got, "../../scripts/"+name+".esl"); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("differs from testdata/explain_%s.golden:\n%s", name, got.String())
			}
		})
	}
}

// `eslev run -stats` for every shipped script on a small checked-in feed,
// serial and on two shards: the rows, the per-query emitted/routed/skipped/
// state/runs lines and the engine gauges, byte for byte. Regenerate a golden
// only for an intended change, from the repository root, with e.g.
// `go run ./cmd/eslev run -shards 2 -stats scripts/dedup.esl
// readings=cmd/eslev/testdata/dedup_readings.csv
// > cmd/eslev/testdata/run_dedup_shards2.golden 2>&1`
// (the feeds and flags of each case are in the table below).
func TestRunStatsGolden(t *testing.T) {
	for _, tc := range []struct {
		script string
		slack  time.Duration
		feeds  []string
	}{
		{script: "clinic", feeds: []string{"A1=clinic_A1.csv", "A2=clinic_A2.csv", "A3=clinic_A3.csv"}},
		{script: "containment", feeds: []string{"R1=containment_R1.csv", "R2=containment_R2.csv"}},
		{script: "dedup", feeds: []string{"readings=dedup_readings.csv"}},
		{script: "speculation", slack: 500 * time.Millisecond, feeds: []string{"readings=speculation_readings.csv"}},
	} {
		for _, shards := range []int{1, 2} {
			golden := "run_" + tc.script
			if shards > 1 {
				golden += "_shards2"
			}
			t.Run(golden, func(t *testing.T) {
				want, err := os.ReadFile("testdata/" + golden + ".golden")
				if err != nil {
					t.Fatal(err)
				}
				var args []string
				for _, f := range tc.feeds {
					name, file, _ := strings.Cut(f, "=")
					args = append(args, name+"=testdata/"+file)
				}
				var got bytes.Buffer
				o := runOpts{shards: shards, stats: true, slack: tc.slack}
				if err := runScript(&got, &got, o, "../../scripts/"+tc.script+".esl", args); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("differs from testdata/%s.golden:\n%s", golden, got.String())
				}
			})
		}
	}
}

func TestParseFeeds(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []csvFeed
		err  string
	}{
		{name: "none"},
		{name: "two", args: []string{"R1=a.csv", "R2=dir/x=y.csv"},
			want: []csvFeed{{"R1", "a.csv"}, {"R2", "dir/x=y.csv"}}},
		{name: "flag after script", args: []string{"-shards", "4"}, err: "flags must precede the script"},
		{name: "flag after feed", args: []string{"R1=a.csv", "-stats"}, err: "flags must precede the script"},
		{name: "no equals", args: []string{"a.csv"}, err: "must be stream=file.csv"},
		{name: "empty stream", args: []string{"=a.csv"}, err: "must be stream=file.csv"},
		{name: "empty file", args: []string{"R1="}, err: "must be stream=file.csv"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseFeeds(tc.args)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}

// Both commands that take feeds reject a flag after the script before
// opening the script or dialing a node.
func TestTrailingFlagRejected(t *testing.T) {
	for name, run := range map[string]func() error{
		"run": func() error {
			return runScript(io.Discard, io.Discard, runOpts{shards: 1}, "missing.esl", []string{"-shards", "4"})
		},
		"feed": func() error {
			return cmdFeed([]string{"-nodes", "127.0.0.1:1", "missing.esl", "-batch", "64"})
		},
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), "flags must precede the script") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestParseEventTime(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want eslev.Timestamp
		bad  bool
	}{
		{in: "1500000000", want: eslev.TS(1500 * time.Millisecond)},
		{in: "0", want: 0},
		{in: "1.5s", want: eslev.TS(1500 * time.Millisecond)},
		{in: "2m3s", want: eslev.TS(123 * time.Second)},
		{in: "", bad: true},
		{in: "1.5", bad: true},
		{in: "noon", bad: true},
	} {
		got, err := parseEventTime(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("parseEventTime(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseEventTime(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestParseCSVValue(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want eslev.Value
	}{
		{"", eslev.Null},
		{"42", eslev.Int(42)},
		{"-7", eslev.Int(-7)},
		{"2.5", eslev.Float(2.5)},
		{"1e3", eslev.Float(1000)},
		{"true", eslev.Bool(true)},
		{"false", eslev.Bool(false)},
		{"TRUE", eslev.Str("TRUE")},
		{"R1", eslev.Str("R1")},
	} {
		if got := parseCSVValue(tc.in); got != tc.want {
			t.Errorf("parseCSVValue(%q) = %v (%v), want %v (%v)", tc.in, got, got.Kind(), tc.want, tc.want.Kind())
		}
	}
}

func TestSoakKillPlan(t *testing.T) {
	p, err := parseSoakKillPlan(0, "junk", 4)
	if err != nil || p.active() || p.ckpt != 4 {
		t.Fatalf("no kills: plan %+v, err %v", p, err)
	}
	p, err = parseSoakKillPlan(6000, "1", 0)
	if err != nil || !p.active() || p.ckpt != 8 {
		t.Fatalf("kills default the checkpoint cadence to 8: plan %+v, err %v", p, err)
	}
	for _, tc := range []struct {
		every    int
		victims  string
		minNodes int
		events   int
		err      string
	}{
		{6000, "a", 2, 15000, "bad -kill-nodes entry"},
		{6000, "-1", 2, 15000, "bad -kill-nodes entry"},
		{6000, "1,,0", 4, 15000, "bad -kill-nodes entry"},
		{6000, "2", 2, 15000, "out of range"},
		{5000, "1,1", 4, 15000, "listed twice"},
		{5000, "0,1", 2, 15000, "leaves no survivor"},
		{8000, "1,2", 4, 15000, "past the 15000-event feed"},
	} {
		p, err := parseSoakKillPlan(tc.every, tc.victims, 0)
		if err == nil {
			err = p.validate(tc.minNodes, tc.events)
		}
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("every=%d victims=%q nodes=%d: err = %v, want one containing %q",
				tc.every, tc.victims, tc.minNodes, err, tc.err)
		}
	}
}
