package esl

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/stream"
)

// BenchmarkWindowedAggregate measures one push into a grouped sliding
// window (4 keys, 1 ms apart) once the window holds its full population,
// so every push also evicts. A RANGE window of n milliseconds and a
// ROWS n window hold the same n entries; the cost per push should not
// grow with n.
//
//	go test -run '^$' -bench BenchmarkWindowedAggregate ./internal/esl
func BenchmarkWindowedAggregate(b *testing.B) {
	for _, kind := range []string{"RANGE", "ROWS"} {
		for _, n := range []int{1000, 10000, 50000} {
			b.Run(fmt.Sprintf("%s/%d", kind, n), func(b *testing.B) {
				over := fmt.Sprintf("RANGE %d MILLISECONDS PRECEDING CURRENT", n)
				if kind == "ROWS" {
					over = fmt.Sprintf("ROWS %d PRECEDING", n)
				}
				e := New()
				if _, err := e.Exec(`CREATE STREAM s(k, v, ts);`); err != nil {
					b.Fatal(err)
				}
				sql := fmt.Sprintf(`SELECT k, count(*), max(v) FROM s OVER (%s) GROUP BY k`, over)
				if _, err := e.RegisterQuery("w", sql, func(Row) {}); err != nil {
					b.Fatal(err)
				}
				keys := []stream.Value{stream.Str("k0"), stream.Str("k1"), stream.Str("k2"), stream.Str("k3")}
				push := func(i int) {
					if err := e.Push("s", stream.TS(time.Duration(i)*time.Millisecond),
						keys[i%len(keys)], stream.Int(int64(i%1000)), stream.Null); err != nil {
						b.Fatal(err)
					}
				}
				for i := 0; i < n; i++ {
					push(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					push(n + i)
				}
			})
		}
	}
}
