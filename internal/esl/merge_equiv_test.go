package esl

// Plan-merging equivalence: every scenario is driven through an unmerged
// reference engine (WithoutPlanMerge, serial Push) and compared row-for-row
// against the merged engine — serially and through PushBatch at several
// batch sizes — plus an unmerged batched arm as a control. Merging must be
// unobservable: same rows, same order, per sink.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stream"
)

// runMergeEquiv drives the scenario through every arm and compares sinks.
func runMergeEquiv(t *testing.T, sc bqScenario) {
	t.Helper()
	want := routeArm(t, sc, []Option{WithoutPlanMerge()}, 0)
	arms := []struct {
		name  string
		opts  []Option
		batch int
	}{
		{"merged/serial", nil, 0},
		{"merged/batch=1", nil, 1},
		{"merged/batch=7", nil, 7},
		{"merged/batch=256", nil, 256},
		{"nomerge/batch=7", []Option{WithoutPlanMerge()}, 7},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			got := routeArm(t, sc, arm.opts, arm.batch)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("diverged from unmerged serial reference:\ngot:  %v\nwant: %v", got, want)
			}
		})
	}
}

// meFeed builds the merge feed: DOCK-heavy C1 traffic (so shared prefixes
// fire often), readers R0..R9 on the finals, five tags plus NULLs, and
// interleaved heartbeats.
func meFeed(rng *rand.Rand, n int) []bqEvt {
	var evts []bqEvt
	at := 0
	for i := 0; i < n; i++ {
		at++
		stn := []string{"C1", "C2"}[rng.Intn(2)]
		var rid stream.Value
		if stn == "C1" && rng.Intn(3) > 0 {
			rid = stream.Str("DOCK")
		} else {
			rid = stream.Str(fmt.Sprintf("R%d", rng.Intn(10)))
		}
		var tag stream.Value
		if rng.Intn(10) == 0 {
			tag = stream.Null
		} else {
			tag = stream.Str(fmt.Sprintf("t%d", rng.Intn(5)))
		}
		evts = append(evts, bqTup(stn, bqSec(at), rid, tag, stream.Time(bqSec(at))))
		if rng.Intn(16) == 0 {
			at++
			evts = append(evts, bqBeat(bqSec(at)))
		}
	}
	return evts
}

// mergeFamily registers the shared-prefix family plus identical duplicates
// under one pairing mode.
func mergeFamily(t *testing.T, e *Engine, mode string, rec func(tag, line string)) {
	t.Helper()
	for i := 0; i < 4; i++ {
		bqRegister(t, e, fmt.Sprintf(`
			SELECT C1.tagid, C2.tagtime FROM C1, C2
			WHERE SEQ(C1, C2)%s
			AND C1.readerid = 'DOCK' AND C2.readerid = 'R%d'
			AND C1.tagid = C2.tagid`, mode, i),
			fmt.Sprintf("fam-%d", i), rec)
	}
	// Identical twins (same full signature).
	for i := 0; i < 2; i++ {
		bqRegister(t, e, fmt.Sprintf(`
			SELECT C2.tagid FROM C1, C2
			WHERE SEQ(C1, C2) OVER [4 SECONDS PRECEDING C2]%s
			AND C1.readerid = 'DOCK'`, mode),
			fmt.Sprintf("twin-%d", i), rec)
	}
	// A loner with a different window: merges with nobody.
	bqRegister(t, e, fmt.Sprintf(`
		SELECT C2.tagid FROM C1, C2
		WHERE SEQ(C1, C2) OVER [2 SECONDS PRECEDING C2]%s
		AND C1.readerid = 'R1'`, mode),
		"loner", rec)
}

// TestMergeEquivSEQModes: the shared-prefix family, identical twins, and a
// loner under all four pairing modes, against a DOCK-heavy random feed.
func TestMergeEquivSEQModes(t *testing.T) {
	for _, mode := range []string{"", " MODE RECENT", " MODE CHRONICLE", " MODE CONSECUTIVE"} {
		t.Run("mode="+mode, func(t *testing.T) {
			runMergeEquiv(t, bqScenario{
				evts: meFeed(rand.New(rand.NewSource(31)), 400),
				setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
					bqExec(t, e, reDDL)
					mergeFamily(t, e, mode, rec)
				},
			})
		})
	}
}

// TestMergeEquivStarPrefix: star steps in the shared prefix exercise the
// run-store engine under a merged automaton (UNRESTRICTED is the only
// star-compatible prefix tier).
func TestMergeEquivStarPrefix(t *testing.T) {
	runMergeEquiv(t, bqScenario{
		evts: meFeed(rand.New(rand.NewSource(37)), 300),
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, reDDL)
			for i := 0; i < 3; i++ {
				bqRegister(t, e, fmt.Sprintf(`
					SELECT C2.tagid, count(C1*) FROM C1, C2
					WHERE SEQ(C1*, C2)
					OVER [5 SECONDS PRECEDING C2]
					AND C1.readerid = 'DOCK' AND C2.readerid = 'R%d'
					AND C1.tagid = C2.tagid`, i),
					fmt.Sprintf("star-%d", i), rec)
			}
		},
	})
}

// TestMergeEquivExceptionAndTransducers: non-SEQ operators flow around the
// merge layer untouched, mixed with a merged family in the same engine.
func TestMergeEquivExceptionAndTransducers(t *testing.T) {
	runMergeEquiv(t, bqScenario{
		evts: meFeed(rand.New(rand.NewSource(41)), 300),
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, reDDL)
			mergeFamily(t, e, "", rec)
			bqRegister(t, e, `
				SELECT C1.tagid FROM C1, C2
				WHERE EXCEPTION_SEQ(C1, C2) OVER [2 SECONDS FOLLOWING C1]
				AND C1.readerid = 'DOCK' AND C2.readerid = 'R0'
				AND C1.tagid = C2.tagid`, "exc", rec)
			for i := 0; i < 3; i++ {
				bqRegister(t, e, fmt.Sprintf(
					`SELECT readerid, tagid FROM C2 WHERE tagid = 't%d'`, i),
					fmt.Sprintf("fp-%d", i), rec)
			}
		},
	})
}

// TestMergeEquivExpireAfter: idle expiry keeps queries out of the prefix
// tier (a shared run's lifetime would couple members); identical twins
// still share, and everything must match the unmerged reference.
func TestMergeEquivExpireAfter(t *testing.T) {
	runMergeEquiv(t, bqScenario{
		sensitive: false,
		evts:      meFeed(rand.New(rand.NewSource(43)), 300),
		setup: func(t *testing.T, e *Engine, rec func(tag, line string)) {
			bqExec(t, e, reDDL)
			for i := 0; i < 2; i++ {
				bqRegister(t, e, `
					SELECT C1.tagid FROM C1, C2
					WHERE SEQ(C1, C2) MODE CHRONICLE EXPIRE AFTER 3 SECONDS
					AND C1.readerid = 'DOCK' AND C1.tagid = C2.tagid`,
					fmt.Sprintf("exp-%d", i), rec)
			}
		},
	})
}

// TestMergeEquivMidStreamRegistration: queries joining a live group halfway
// through the feed must behave exactly like fresh independent queries.
func TestMergeEquivMidStreamRegistration(t *testing.T) {
	feed := meFeed(rand.New(rand.NewSource(47)), 400)
	half := len(feed) / 2
	run := func(opts ...Option) map[string][]string {
		e := New(opts...)
		got, rec := bqRecorder()
		bqExec(t, e, reDDL)
		for i := 0; i < 2; i++ {
			bqRegister(t, e, fmt.Sprintf(`
				SELECT C1.tagid FROM C1, C2
				WHERE SEQ(C1, C2)
				AND C1.readerid = 'DOCK' AND C2.readerid = 'R%d'
				AND C1.tagid = C2.tagid`, i),
				fmt.Sprintf("early-%d", i), rec)
		}
		feedRange := func(evts []bqEvt) {
			for _, ev := range evts {
				var err error
				if ev.hb {
					err = e.Heartbeat(ev.ts)
				} else {
					err = e.Push(ev.name, ev.ts, ev.vals...)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		feedRange(feed[:half])
		for i := 2; i < 4; i++ {
			bqRegister(t, e, fmt.Sprintf(`
				SELECT C1.tagid FROM C1, C2
				WHERE SEQ(C1, C2)
				AND C1.readerid = 'DOCK' AND C2.readerid = 'R%d'
				AND C1.tagid = C2.tagid`, i),
				fmt.Sprintf("late-%d", i), rec)
		}
		feedRange(feed[half:])
		return got
	}
	got, want := run(), run(WithoutPlanMerge())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mid-stream joiners diverged:\nmerged:   %v\nunmerged: %v", got, want)
	}
}

// TestMergeEquivCheckpointRestore: checkpoint the merged engine mid-feed,
// restore into a fresh engine, finish the feed on both, and certify the
// restored run re-emits exactly the original tail — against the unmerged
// reference as ground truth.
func TestMergeEquivCheckpointRestore(t *testing.T) {
	for _, seed := range []int64{53, 59} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			feed := meFeed(rand.New(rand.NewSource(seed)), 300)
			half := len(feed) / 2
			setup := func(e *Engine, rec func(tag, line string)) {
				bqExec(t, e, reDDL)
				mergeFamily(t, e, "", rec)
			}
			feedRange := func(e *Engine, evts []bqEvt) {
				for _, ev := range evts {
					var err error
					if ev.hb {
						err = e.Heartbeat(ev.ts)
					} else {
						err = e.Push(ev.name, ev.ts, ev.vals...)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}

			// Unmerged reference over the full feed.
			ref := New(WithoutPlanMerge())
			want, wantRec := bqRecorder()
			setup(ref, wantRec)
			feedRange(ref, feed)

			// Merged arm: checkpoint at the half-way cut.
			e1 := New()
			got1, rec1 := bqRecorder()
			setup(e1, rec1)
			feedRange(e1, feed[:half])
			var buf bytes.Buffer
			if err := e1.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			firstHalf := map[string]int{}
			for tag, lines := range got1 {
				firstHalf[tag] = len(lines)
			}
			feedRange(e1, feed[half:])
			if !reflect.DeepEqual(got1, want) {
				t.Fatalf("merged full run diverged:\ngot:  %v\nwant: %v", got1, want)
			}

			// Restored arm re-emits exactly the tail.
			e2 := New()
			got2, rec2 := bqRecorder()
			setup(e2, rec2)
			if err := e2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			feedRange(e2, feed[half:])
			for tag, lines := range want {
				tail := lines[firstHalf[tag]:]
				if len(tail) == 0 && len(got2[tag]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got2[tag], tail) {
					t.Fatalf("restored tail diverged for %s:\ngot:  %v\nwant: %v", tag, got2[tag], tail)
				}
			}
			for tag := range got2 {
				if _, ok := want[tag]; !ok {
					t.Fatalf("restored run emitted unexpected sink %s: %v", tag, got2[tag])
				}
			}
		})
	}
}
