package birdext

import (
	"bytes"
	"testing"

	"bridgescope/internal/sqldb"
)

// TestSuiteEngineMatchesBuildEngine checks that the image-loaded fixture is
// the SQL-built one: same tables in the same order, same rows, same index
// definitions and grants (the images are byte-equal), and the same plans.
func TestSuiteEngineMatchesBuildEngine(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		built := BuildEngine(seed)
		loaded := GenerateSuite(seed).BuildEngine()
		names := built.TableNames()
		if got := loaded.TableNames(); len(got) != len(names) {
			t.Fatalf("seed %d: tables %v, want %v", seed, got, names)
		}
		bs, ls := built.NewSession("root"), loaded.NewSession("root")
		for i, name := range names {
			if got := loaded.TableNames()[i]; got != name {
				t.Fatalf("seed %d: table %d is %q, want %q", seed, i, got, name)
			}
			bt, _ := built.Table(name)
			lt, _ := loaded.Table(name)
			if sqldb.SchemaSQL(lt) != sqldb.SchemaSQL(bt) {
				t.Fatalf("seed %d: schema of %s differs:\n%s\n%s", seed, name, sqldb.SchemaSQL(lt), sqldb.SchemaSQL(bt))
			}
			q := "SELECT * FROM " + name
			if got, want := ls.MustExec(q).Text(), bs.MustExec(q).Text(); got != want {
				t.Fatalf("seed %d: rows of %s differ", seed, name)
			}
		}
		for _, q := range []string{
			"EXPLAIN SELECT name FROM schools WHERE id = 7",
			"EXPLAIN SELECT s.name, c.avg_math FROM schools s JOIN scores c ON s.id = c.school_id WHERE c.year = 2023",
			"EXPLAIN SELECT amount FROM sales WHERE order_id BETWEEN 1010 AND 1020",
		} {
			if got, want := ls.MustExec(q).Text(), bs.MustExec(q).Text(); got != want {
				t.Errorf("seed %d: %s:\nloaded: %s\nbuilt:  %s", seed, q, got, want)
			}
		}
		if !bytes.Equal(loaded.Image(), built.Image()) {
			t.Fatalf("seed %d: image of the loaded fixture differs from the built one", seed)
		}
	}
}

// TestSuiteEnginesAreIndependent checks that what one task run does to its
// fixture — writes, DDL, role grants — never reaches the pristine fixture
// or the next reset.
func TestSuiteEnginesAreIndependent(t *testing.T) {
	s := GenerateSuite(7)
	pristine := BuildEngine(7).Image()

	e := s.BuildEngine()
	user := SetupRole(e, RoleAdmin)
	SetupRole(e, RoleIrrelevant)
	sess := e.NewSession(user)
	for _, q := range []string{
		"INSERT INTO items (id, name, category, price) VALUES (999, 'Item 999', 'kids', 9.5)",
		"UPDATE accounts SET balance = 0 WHERE status = 'frozen'",
		"DELETE FROM refunds WHERE reason = 'damaged'",
	} {
		sess.MustExec(q)
	}
	e.NewSession("root").MustExec("DROP TABLE notes")

	next := s.BuildEngine()
	if !bytes.Equal(next.Image(), pristine) {
		t.Fatal("a task run's changes reached the next fixture reset")
	}
	for _, u := range []string{"bird_admin", "bird_other"} {
		if next.Grants().HasAny(u, "items") || next.Grants().HasAny(u, "notes") {
			t.Fatalf("role grants for %s reached the next fixture reset", u)
		}
	}
	if got := s.BuildEngine().PlanCacheSnapshot(); got.Size != 0 || got.Hits != 0 || got.Misses != 0 {
		t.Fatalf("fixture reset starts with a used plan cache: %+v", got)
	}
}

// TestSuitesShareTaskTemplates checks that suites of different seeds share
// the seed-independent task definitions but keep their own expectations.
func TestSuitesShareTaskTemplates(t *testing.T) {
	a, b := GenerateSuite(1), GenerateSuite(2)
	differ := 0
	for i := range a.Tasks {
		ta, tb := a.Tasks[i], b.Tasks[i]
		if ta == tb {
			t.Fatalf("task %s: suites share one Task value", ta.ID)
		}
		if &ta.GoldSQL[0] != &tb.GoldSQL[0] {
			t.Fatalf("task %s: gold SQL copied per suite", ta.ID)
		}
		if ta.Expected != tb.Expected {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("expectations identical across seeds; they must be computed per suite")
	}
	for _, tmpl := range templates {
		if tmpl.Expected != "" {
			t.Fatalf("template %s carries a suite's expectation", tmpl.ID)
		}
	}
}

// BenchmarkBuildEngineSQL is the fixture reset without an image: executing
// the fixture's DDL and INSERT statements.
func BenchmarkBuildEngineSQL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildEngine(1)
	}
}

// BenchmarkSuiteBuildEngine is the fixture reset task runs use: loading
// the suite's image into a new engine.
func BenchmarkSuiteBuildEngine(b *testing.B) {
	s := GenerateSuite(1)
	s.BuildEngine() // encode the image outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BuildEngine()
	}
}
