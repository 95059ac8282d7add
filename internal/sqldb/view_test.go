package sqldb

import (
	"strings"
	"testing"
)

func TestCreateAndQueryView(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`CREATE VIEW cheap_items AS SELECT name, price FROM items WHERE price < 20`)
	r := mustQuery(t, s, `SELECT * FROM cheap_items ORDER BY price`)
	if len(r.Rows) != 3 {
		t.Fatalf("view rows = %d, want 3: %v", len(r.Rows), r.Rows)
	}
	// Views compose with filters, aggregates and aliases.
	r = mustQuery(t, s, `SELECT COUNT(*) FROM cheap_items WHERE price > 5`)
	if r.Rows[0][0].I != 2 {
		t.Fatalf("filtered view count wrong: %v", r.Rows[0][0])
	}
	r = mustQuery(t, s, `SELECT c.name FROM cheap_items c ORDER BY c.name LIMIT 1`)
	if r.Rows[0][0].S != "mug" {
		t.Fatalf("aliased view wrong: %v", r.Rows)
	}
}

func TestViewReflectsBaseTableChanges(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`CREATE VIEW clothes AS SELECT name FROM items WHERE category = 'clothes'`)
	before := mustQuery(t, s, `SELECT COUNT(*) FROM clothes`).Rows[0][0].I
	s.MustExec(`INSERT INTO items (id, name, category) VALUES (99, 'coat', 'clothes')`)
	after := mustQuery(t, s, `SELECT COUNT(*) FROM clothes`).Rows[0][0].I
	if after != before+1 {
		t.Fatalf("view is stale: %d -> %d", before, after)
	}
}

func TestViewAggregateDefinition(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`CREATE VIEW cat_stats AS SELECT category, COUNT(*) AS n, AVG(price) AS avg_price FROM items GROUP BY category`)
	r := mustQuery(t, s, `SELECT category, n FROM cat_stats ORDER BY n DESC`)
	if len(r.Rows) != 2 || r.Rows[0][1].I != 3 {
		t.Fatalf("aggregate view wrong: %v", r.Rows)
	}
}

func TestDropView(t *testing.T) {
	_, s := newTestEngine(t)
	s.MustExec(`CREATE VIEW v1 AS SELECT id FROM items`)
	s.MustExec(`DROP VIEW v1`)
	if _, err := s.Exec(`SELECT * FROM v1`); err == nil {
		t.Fatal("dropped view still queryable")
	}
	if _, err := s.Exec(`DROP VIEW v1`); err == nil {
		t.Fatal("dropping a missing view must error")
	}
	s.MustExec(`DROP VIEW IF EXISTS v1`)
}

func TestViewNameCollisions(t *testing.T) {
	_, s := newTestEngine(t)
	if _, err := s.Exec(`CREATE VIEW items AS SELECT id FROM sales`); err == nil {
		t.Fatal("view must not shadow a table")
	}
	s.MustExec(`CREATE VIEW v1 AS SELECT id FROM items`)
	if _, err := s.Exec(`CREATE TABLE v1 (a INT PRIMARY KEY)`); err == nil {
		t.Fatal("table must not shadow a view")
	}
	if _, err := s.Exec(`CREATE VIEW v1 AS SELECT id FROM items`); err == nil {
		t.Fatal("duplicate view must error")
	}
}

func TestViewTransactionRollback(t *testing.T) {
	e, s := newTestEngine(t)
	s.MustExec(`BEGIN`)
	s.MustExec(`CREATE VIEW tmpv AS SELECT id FROM items`)
	s.MustExec(`ROLLBACK`)
	if _, ok := e.ViewByName("tmpv"); ok {
		t.Fatal("rolled-back CREATE VIEW persisted")
	}
	s.MustExec(`CREATE VIEW keeper AS SELECT id FROM items`)
	s.MustExec(`BEGIN`)
	s.MustExec(`DROP VIEW keeper`)
	s.MustExec(`ROLLBACK`)
	if _, ok := e.ViewByName("keeper"); !ok {
		t.Fatal("rolled-back DROP VIEW lost the view")
	}
}

func TestViewPrivileges(t *testing.T) {
	e, s := newTestEngine(t)
	s.MustExec(`CREATE VIEW item_names AS SELECT name FROM items`)
	// A user granted SELECT on the view but not the table can use the view
	// (owner-style view execution) but not the table.
	e.Grants().Grant("viewer", ActionSelect, "item_names")
	viewer := e.NewSession("viewer")
	if _, err := viewer.Exec(`SELECT * FROM item_names`); err != nil {
		t.Fatalf("view access should be allowed: %v", err)
	}
	if _, err := viewer.Exec(`SELECT * FROM items`); err == nil {
		t.Fatal("base table access should be denied")
	}
	// Creating a view requires SELECT on its underlying tables.
	e.Grants().Grant("builder", ActionCreate, "*")
	builder := e.NewSession("builder")
	if _, err := builder.Exec(`CREATE VIEW sneaky AS SELECT * FROM items`); err == nil {
		t.Fatal("view creation without SELECT on base must be denied")
	}
}

func TestViewSQLRoundTrip(t *testing.T) {
	e, s := newTestEngine(t)
	def := `CREATE VIEW v2 AS SELECT category, COUNT(*) AS n FROM items WHERE price > 5 GROUP BY category ORDER BY n DESC LIMIT 3`
	s.MustExec(def)
	v, _ := e.ViewByName("v2")
	rendered := ViewSQL(v)
	for _, want := range []string{"CREATE VIEW v2 AS SELECT", "GROUP BY category", "ORDER BY n DESC", "LIMIT 3"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("rendered view missing %q:\n%s", want, rendered)
		}
	}
	// The rendered DDL parses back.
	if _, err := Parse(rendered); err != nil {
		t.Fatalf("rendered view does not parse: %v\n%s", err, rendered)
	}
}

func TestColumnGrantSQL(t *testing.T) {
	e, s := newTestEngine(t)
	s.MustExec(`GRANT SELECT (id, name) ON items TO peeker`)
	peeker := e.NewSession("peeker")
	peeker.MustExec(`SELECT id, name FROM items`)
	if _, err := peeker.Exec(`SELECT price FROM items`); err == nil {
		t.Fatal("column grant must exclude other columns")
	}
	if _, err := peeker.Exec(`SELECT CAST(price AS TEXT) FROM items`); err == nil {
		t.Fatal("column grant must exclude other columns inside CAST")
	}
	if _, err := peeker.Exec(`SELECT * FROM items`); err == nil {
		t.Fatal("star must be rejected under column grants")
	}
}

func TestViewWithSubquery(t *testing.T) {
	e := NewEngine("viewsub")
	s := e.NewSession("root")
	s.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, grp INT)`)
	s.MustExec(`CREATE TABLE u (id INT PRIMARY KEY)`)
	s.MustExec(`INSERT INTO t VALUES (1, 1), (2, 2), (3, 1)`)
	s.MustExec(`INSERT INTO u VALUES (1), (3)`)
	s.MustExec(`CREATE VIEW vs AS SELECT id FROM t WHERE id IN (SELECT id FROM u)`)

	r := s.MustExec("SELECT COUNT(*) FROM vs")
	if r.Rows[0][0].I != 2 {
		t.Fatalf("view with subquery returned %d rows, want 2", r.Rows[0][0].I)
	}
	// Scalar subqueries inside views work too.
	s.MustExec(`CREATE VIEW vmax AS SELECT id FROM t WHERE grp = (SELECT MAX(grp) FROM t)`)
	r = s.MustExec("SELECT id FROM vmax")
	if len(r.Rows) != 1 || r.Rows[0][0].I != 2 {
		t.Fatalf("scalar-subquery view wrong: %v", r.Rows)
	}
}
