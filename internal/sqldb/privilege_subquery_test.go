package sqldb

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// subquerySlots puts a subquery reading the unreadable table secret into
// every clause that accepts an expression. Each statement otherwise
// touches only pub, on which the user holds every privilege.
var subquerySlots = []struct{ slot, sql string }{
	{"select item", `SELECT (SELECT s FROM secret WHERE id = 1) FROM pub`},
	{"join on", `SELECT a.id FROM pub a JOIN pub b ON a.id = b.id AND b.v IN (SELECT s FROM secret)`},
	{"where", `SELECT id FROM pub WHERE v IN (SELECT s FROM secret)`},
	{"group by", `SELECT COUNT(*) FROM pub GROUP BY (SELECT s FROM secret WHERE id = 1)`},
	{"having", `SELECT COUNT(*) FROM pub HAVING COUNT(*) > (SELECT COUNT(*) FROM secret)`},
	{"order by", `SELECT id FROM pub ORDER BY (SELECT s FROM secret WHERE id = 1)`},
	{"limit", `SELECT id FROM pub LIMIT (SELECT COUNT(*) FROM secret)`},
	{"offset", `SELECT id FROM pub LIMIT 1 OFFSET (SELECT COUNT(*) FROM secret)`},
	{"update set", `UPDATE pub SET v = (SELECT s FROM secret WHERE id = 1) WHERE id = 1`},
	{"update where", `UPDATE pub SET v = 'x' WHERE v IN (SELECT s FROM secret)`},
	{"delete where", `DELETE FROM pub WHERE v IN (SELECT s FROM secret)`},
	{"insert values", `INSERT INTO pub VALUES (3, (SELECT s FROM secret WHERE id = 1))`},
}

func newSubqueryPrivEngine(t *testing.T) (*Engine, *Session) {
	t.Helper()
	e := NewEngine("subq")
	root := e.NewSession("root")
	root.MustExec(`CREATE TABLE pub (id INT PRIMARY KEY, v TEXT)`)
	root.MustExec(`CREATE TABLE secret (id INT PRIMARY KEY, s TEXT)`)
	root.MustExec(`INSERT INTO pub VALUES (1, 'a'), (2, 'b')`)
	root.MustExec(`INSERT INTO secret VALUES (1, 'classified')`)
	e.Grants().GrantAll("pubuser", "pub")
	return e, root
}

// TestReferencedTablesEverySubquerySlot checks the table list that the
// engine's privilege check, its write-lock set and the toolkit's
// verification all rely on: the statement's own table first, then every
// table a subquery reads, whichever clause holds it.
func TestReferencedTablesEverySubquerySlot(t *testing.T) {
	for _, c := range subquerySlots {
		t.Run(c.slot, func(t *testing.T) {
			stmt, err := Parse(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			got := ReferencedTables(stmt)
			if !slices.Equal(got, []string{"pub", "secret"}) {
				t.Fatalf("ReferencedTables(%q) = %v, want [pub secret]", c.sql, got)
			}
		})
	}
}

// TestSubqueryPrivilegeEverySlot runs each statement as a user granted
// only on pub: the engine must refuse it for lack of SELECT on secret
// before anything executes, so no secret value reaches pub.
func TestSubqueryPrivilegeEverySlot(t *testing.T) {
	for _, c := range subquerySlots {
		t.Run(c.slot, func(t *testing.T) {
			e, root := newSubqueryPrivEngine(t)
			_, err := e.NewSession("pubuser").Exec(c.sql)
			var pe *PermissionError
			if !errors.As(err, &pe) || pe.Object != "secret" || pe.Action != ActionSelect {
				t.Fatalf("%s: want SELECT on secret denied, got %v", c.sql, err)
			}
			if r := root.MustExec(`SELECT v FROM pub ORDER BY id`); strings.Contains(r.Text(), "classified") || len(r.Rows) != 2 {
				t.Fatalf("pub changed by a refused statement:\n%s", r.Text())
			}
		})
	}
}

// TestSubqueryPrivilegeGrantedRuns is the positive control: with SELECT on
// secret the same statements pass the privilege check.
func TestSubqueryPrivilegeGrantedRuns(t *testing.T) {
	for _, c := range subquerySlots {
		t.Run(c.slot, func(t *testing.T) {
			e, _ := newSubqueryPrivEngine(t)
			e.Grants().Grant("pubuser", ActionSelect, "secret")
			_, err := e.NewSession("pubuser").Exec(c.sql)
			var pe *PermissionError
			if errors.As(err, &pe) {
				t.Fatalf("%s: denied despite grants: %v", c.sql, err)
			}
		})
	}
}

// selfReadSlots read the statement's own target table from a subquery.
var selfReadSlots = []struct {
	slot, sql string
	action    Action
}{
	{"insert values", `INSERT INTO pub VALUES ((SELECT MAX(id) FROM pub) + 1, (SELECT v FROM pub WHERE id = 1))`, ActionInsert},
	{"update set", `UPDATE pub SET v = (SELECT v FROM pub WHERE id = 2) WHERE id = 1`, ActionUpdate},
	{"update where", `UPDATE pub SET v = 'x' WHERE id IN (SELECT id FROM pub WHERE v = 'a')`, ActionUpdate},
	{"delete where", `DELETE FROM pub WHERE id IN (SELECT id FROM pub WHERE v = 'a')`, ActionDelete},
}

// TestSelfReadSubqueryNeedsSelect: a subquery that reads the target table
// is a read like any other. ReferencedTables lists the target twice, and a
// user holding only the statement's action on pub is refused SELECT on pub
// before anything executes; granting SELECT lets the statement run.
func TestSelfReadSubqueryNeedsSelect(t *testing.T) {
	for _, c := range selfReadSlots {
		t.Run(c.slot, func(t *testing.T) {
			stmt, err := Parse(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := ReferencedTables(stmt); !slices.Equal(got, []string{"pub", "pub"}) {
				t.Fatalf("ReferencedTables(%q) = %v, want [pub pub]", c.sql, got)
			}
			e, root := newSubqueryPrivEngine(t)
			e.Grants().Grant("writer", c.action, "pub")
			before := root.MustExec(`SELECT id, v FROM pub ORDER BY id`).Text()
			_, err = e.NewSession("writer").Exec(c.sql)
			var pe *PermissionError
			if !errors.As(err, &pe) || pe.Object != "pub" || pe.Action != ActionSelect {
				t.Fatalf("%s: want SELECT on pub denied, got %v", c.sql, err)
			}
			if after := root.MustExec(`SELECT id, v FROM pub ORDER BY id`).Text(); after != before {
				t.Fatalf("pub changed by a refused statement:\n%s", after)
			}
			e.Grants().Grant("writer", ActionSelect, "pub")
			if _, err := e.NewSession("writer").Exec(c.sql); err != nil {
				t.Fatalf("%s: with SELECT granted: %v", c.sql, err)
			}
		})
	}
}
