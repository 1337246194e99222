package esl

import (
	"fmt"
	"testing"
)

// BenchmarkRegisterMerged registers n prefix-sharing SEQ queries, which all
// join one merge group, and reports the registration cost per query. A
// per-query cost that stays flat as n grows means joining a group costs
// the same whatever its size.
func BenchmarkRegisterMerged(b *testing.B) {
	for _, n := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			sqls := make([]string, n)
			for i := range sqls {
				sqls[i] = fmt.Sprintf(`
					SELECT C1.tagid, C2.tagtime FROM C1, C2
					WHERE SEQ(C1, C2)
					AND C1.readerid = 'DOCK' AND C2.readerid = 'R%d'
					AND C1.tagid = C2.tagid`, i)
			}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				b.StopTimer()
				e := New()
				if _, err := e.Exec(reDDL); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for i, sql := range sqls {
					if _, err := e.RegisterQuery(fmt.Sprintf("q%d", i), sql, func(Row) {}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if len(e.groups) != 1 || len(e.groups[0].members) != n {
					b.Fatalf("%d queries formed %d groups", n, len(e.groups))
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "us/query")
		})
	}
}
