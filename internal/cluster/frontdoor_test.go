package cluster

// Front-door parity: the serial engine, the sharded engine and a two-node
// cluster take the same edge-case input through Push, PushTuple and
// PushBatch, and must answer it the same way — the same calls rejected, the
// same dead letters, the same rows. The serial engine is the reference.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/esl"
	"repro/internal/shard"
	"repro/internal/stream"
)

// door is the surface the parity cases drive; esl.Engine, shard.Engine and
// Client all provide it.
type door interface {
	Exec(script string) ([]*esl.Query, error)
	RegisterQuery(name, sql string, onRow func(esl.Row)) (*esl.Query, error)
	StreamSchema(name string) (*stream.Schema, bool)
	Push(streamName string, ts stream.Timestamp, vals ...stream.Value) error
	PushTuple(streamName string, t *stream.Tuple) error
	PushBatch(items []stream.Item) error
	OnDeadLetter(fn func(stream.DeadLetter))
	Drain() error
}

func sec(n int) stream.Timestamp { return stream.TS(time.Duration(n) * time.Second) }

// ghostTuple is a tuple of a stream no engine declares.
func ghostTuple() *stream.Tuple {
	return stream.MustTuple(stream.MustSchema("ghost", stream.Field{Name: "a"}), sec(1), stream.Str("x"))
}

func pushR(d door, at int) error {
	return d.Push("r", sec(at), stream.Str(fmt.Sprintf("k%d", at)), stream.Int(int64(at)))
}

func TestFrontDoorParity(t *testing.T) {
	cases := []struct {
		name  string
		opts  []esl.Option
		steps func(d door) []error
	}{
		{"undeclared stream", nil, func(d door) []error {
			errs := []error{
				d.PushTuple("ghost", ghostTuple()),
				d.PushBatch([]stream.Item{stream.Of(ghostTuple())}),
			}
			for i := 2; i < 10; i++ {
				errs = append(errs, pushR(d, i))
			}
			return errs
		}},
		{"malformed push with slack", []esl.Option{esl.WithSlack(time.Second)}, func(d door) []error {
			return []error{
				pushR(d, 1),
				d.Push("r", sec(2), stream.Str("only-one")),
				pushR(d, 3),
			}
		}},
		{"out-of-order without slack", nil, func(d door) []error {
			return []error{pushR(d, 10), pushR(d, 5), pushR(d, 11)}
		}},
		{"heartbeat-only batch", nil, func(d door) []error {
			return []error{
				d.PushBatch([]stream.Item{stream.Heartbeat(sec(10))}),
				pushR(d, 5),
				pushR(d, 10),
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := runDoor(t, esl.New(tc.opts...), tc.steps)
			t.Logf("serial: %s", want)
			sh := shard.New(2, tc.opts...)
			defer sh.Close()
			if got := runDoor(t, sh, tc.steps); got != want {
				t.Errorf("sharded diverges from serial:\n got: %s\nwant: %s", got, want)
			}
			addrs, wait := startNodes(t, 2, 1)
			c, err := Dial(Config{Nodes: addrs, Options: tc.opts})
			if err != nil {
				t.Fatal(err)
			}
			got := runDoor(t, c, tc.steps)
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			wait()
			if got != want {
				t.Errorf("cluster diverges from serial:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// runDoor declares r(a, n) with a pass-through query, runs the steps and a
// Drain, and transcribes the outcome: which calls failed, the dead-letter
// reasons and the rows in order.
func runDoor(t *testing.T, d door, steps func(door) []error) string {
	t.Helper()
	if _, err := d.Exec(`CREATE STREAM r(a, n);`); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var rows, dead []string
	if _, err := d.RegisterQuery("q", `SELECT a, n FROM r`, func(r esl.Row) {
		mu.Lock()
		defer mu.Unlock()
		rows = append(rows, fmt.Sprintf("%v@%v", r.Vals, r.TS))
	}); err != nil {
		t.Fatal(err)
	}
	d.OnDeadLetter(func(dl stream.DeadLetter) {
		mu.Lock()
		defer mu.Unlock()
		dead = append(dead, dl.Reason.String())
	})
	var b strings.Builder
	b.WriteString("calls:")
	for _, err := range steps(d) {
		if err != nil {
			b.WriteString(" err")
		} else {
			b.WriteString(" ok")
		}
	}
	fmt.Fprintf(&b, "; drain err=%v", d.Drain() != nil)
	mu.Lock()
	defer mu.Unlock()
	fmt.Fprintf(&b, "; dead=%v; rows=%v", dead, rows)
	return b.String()
}
