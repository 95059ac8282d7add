package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

// benchParallelEngine builds a 40k-row fact table and a 64-row dimension
// table on an engine with the given worker count. The SequentialBaseline
// benches run the same batched executor with one worker.
func benchParallelEngine(b *testing.B, workers int) *Session {
	b.Helper()
	e := NewEngine("parbench")
	e.SetParallelism(workers, 1024)
	s := e.NewSession("root")
	s.MustExec("CREATE TABLE big (id INT PRIMARY KEY, grp INT, val REAL)")
	s.MustExec("CREATE TABLE dim (id INT PRIMARY KEY, label TEXT)")
	const rows = 40000
	const batch = 500
	for start := 0; start < rows; start += batch {
		vals := make([]string, 0, batch)
		for i := start; i < start+batch; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d.5)", i, i%64, i%10000))
		}
		s.MustExec("INSERT INTO big VALUES " + strings.Join(vals, ", "))
	}
	var dims []string
	for i := 0; i < 64; i++ {
		dims = append(dims, fmt.Sprintf("(%d, 'g%d')", i, i))
	}
	s.MustExec("INSERT INTO dim VALUES " + strings.Join(dims, ", "))
	return s
}

func benchQuery(b *testing.B, s *Session, sql string) {
	b.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExecStmt(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

const (
	parScanQuery  = "SELECT COUNT(*) FROM big WHERE val < 2500.0"
	parGroupQuery = "SELECT grp, COUNT(*), SUM(val), AVG(val) FROM big GROUP BY grp"
	parJoinQuery  = "SELECT COUNT(*) FROM big JOIN dim ON big.grp = dim.id WHERE big.val < 5000.0"
)

func BenchmarkParallelSeqScan(b *testing.B) {
	benchQuery(b, benchParallelEngine(b, 4), parScanQuery)
}

// BenchmarkParallelSeqScanSequentialBaseline: batched, one worker.
func BenchmarkParallelSeqScanSequentialBaseline(b *testing.B) {
	benchQuery(b, benchParallelEngine(b, 1), parScanQuery)
}

func BenchmarkParallelGroupBy(b *testing.B) {
	benchQuery(b, benchParallelEngine(b, 4), parGroupQuery)
}

// BenchmarkParallelGroupBySequentialBaseline: batched, one worker.
func BenchmarkParallelGroupBySequentialBaseline(b *testing.B) {
	benchQuery(b, benchParallelEngine(b, 1), parGroupQuery)
}

func BenchmarkParallelHashJoin(b *testing.B) {
	benchQuery(b, benchParallelEngine(b, 4), parJoinQuery)
}

// BenchmarkParallelHashJoinSequentialBaseline: batched, one worker.
func BenchmarkParallelHashJoinSequentialBaseline(b *testing.B) {
	benchQuery(b, benchParallelEngine(b, 1), parJoinQuery)
}
