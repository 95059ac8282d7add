package csvdb

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bridgescope/internal/core"
	"bridgescope/internal/sqldb"
)

func writeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"orders.csv":     "id,item,qty,price\n1,shirt,2,19.99\n2,jeans,1,49.5\n3,mug,4,7.25\n",
		"Events Log.csv": "ts,kind,note\n100,start,boot ok\n200,stop,\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestOpenAndQuery(t *testing.T) {
	store, err := Open(writeFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	root := store.Engine().NewSession("root")
	r := root.MustExec("SELECT COUNT(*), SUM(qty) FROM orders")
	if r.Rows[0][0].I != 3 || r.Rows[0][1].I != 7 {
		t.Fatalf("orders not loaded: %v", r.Rows)
	}
	// File names with spaces/case become valid identifiers.
	r = root.MustExec("SELECT COUNT(*) FROM events_log")
	if r.Rows[0][0].I != 2 {
		t.Fatalf("events_log not loaded: %v", r.Rows)
	}
}

func TestTypeInference(t *testing.T) {
	store, err := Open(writeFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := store.Engine().Table("orders")
	if !ok {
		t.Fatal("orders table missing")
	}
	wantTypes := map[string]string{"id": "INTEGER", "item": "TEXT", "qty": "INTEGER", "price": "REAL"}
	for _, c := range tab.Columns {
		if got := c.Type.String(); got != wantTypes[c.Name] {
			t.Fatalf("column %s inferred as %s, want %s", c.Name, got, wantTypes[c.Name])
		}
	}
	// Empty cells load as NULL.
	root := store.Engine().NewSession("root")
	r := root.MustExec("SELECT COUNT(*) FROM events_log WHERE note IS NULL")
	if r.Rows[0][0].I != 1 {
		t.Fatalf("empty cell should be NULL: %v", r.Rows)
	}
}

func TestBridgeScopeOverCSV(t *testing.T) {
	store, err := Open(writeFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	store.Grants().GrantAll("analyst", "orders")
	tk := core.New(store.Conn("analyst"), core.Policy{})
	ctx := context.Background()

	schema, err := tk.Client().CallTool(ctx, "get_schema", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(schema.Text, "CREATE TABLE orders") ||
		!strings.Contains(schema.Text, "-- Access: True") {
		t.Fatalf("annotated CSV schema wrong:\n%s", schema.Text)
	}
	// events_log is visible but inaccessible — same annotation semantics
	// as any other backend.
	if !strings.Contains(schema.Text, "-- Access: False") {
		t.Fatalf("inaccessible CSV table should be annotated:\n%s", schema.Text)
	}

	rows, err := tk.Client().CallTool(ctx, "select", map[string]any{
		"sql": "SELECT item FROM orders WHERE price > 10 ORDER BY price DESC",
	})
	if err != nil || rows.IsErr {
		t.Fatalf("select over CSV failed: %v %s", err, rows.Text)
	}
	if !strings.Contains(rows.Text, "jeans") {
		t.Fatalf("unexpected rows: %s", rows.Text)
	}

	// Transactions work over CSV-backed tables too.
	for _, step := range []struct {
		tool string
		args map[string]any
	}{
		{"begin", nil},
		{"update", map[string]any{"sql": "UPDATE orders SET qty = qty + 1 WHERE id = 1"}},
		{"commit", nil},
	} {
		res, err := tk.Client().CallTool(ctx, step.tool, step.args)
		if err != nil || res.IsErr {
			t.Fatalf("%s failed: %v %s", step.tool, err, res.Text)
		}
	}
}

func TestSaveRoundTrip(t *testing.T) {
	dir := writeFixture(t)
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	root := store.Engine().NewSession("root")
	root.MustExec("INSERT INTO orders VALUES (4, 'hat', 1, 12.5)")
	root.MustExec("DELETE FROM orders WHERE id = 2")

	out := t.TempDir()
	if err := store.Save(out); err != nil {
		t.Fatal(err)
	}
	re, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	r := re.Engine().NewSession("root").MustExec("SELECT COUNT(*), SUM(qty) FROM orders")
	if r.Rows[0][0].I != 3 || r.Rows[0][1].I != 7 {
		t.Fatalf("round trip lost modifications: %v", r.Rows)
	}
	r = re.Engine().NewSession("root").MustExec("SELECT item FROM orders WHERE id = 4")
	if len(r.Rows) != 1 || r.Rows[0][0].S != "hat" {
		t.Fatalf("inserted row lost: %v", r.Rows)
	}
}

func TestTableName(t *testing.T) {
	cases := map[string]string{
		"orders.csv":     "orders",
		"Events Log.csv": "events_log",
		"2024data.csv":   "t_2024data",
		"UPPER.CSV":      "upper",
	}
	for in, want := range cases {
		if got := TableName(in); got != want {
			t.Errorf("TableName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing directory must error")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.csv"), []byte(""), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("empty csv must error")
	}
}

func TestExplainOverCSV(t *testing.T) {
	store, err := Open(writeFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	store.Grants().Grant("analyst", mustAction(t, "SELECT"), "orders")

	// Plan metadata flows through the same Conn interface as the native
	// backend: a fresh CSV table full-scans...
	plan, err := store.Explain("analyst", "SELECT item FROM orders WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Seq Scan on orders") {
		t.Fatalf("expected seq scan over csv table:\n%s", plan)
	}

	// ...and indexing it upgrades the same query to an index scan.
	store.Engine().NewSession("root").MustExec("CREATE INDEX idx_id ON orders (id)")
	plan, err = store.Explain("analyst", "SELECT item FROM orders WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Index Scan on orders using index idx_id (id = 2)") {
		t.Fatalf("expected index scan over csv table:\n%s", plan)
	}

	// EXPLAIN enforces privileges: analyst has no grant on events_log.
	if _, err := store.Explain("analyst", "SELECT * FROM events_log"); err == nil {
		t.Fatal("EXPLAIN must enforce SELECT privilege on csv tables")
	}

	// The EXPLAIN statement form works through Conn.Exec too.
	res, err := store.Conn("analyst").Exec("EXPLAIN SELECT item FROM orders WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "QUERY PLAN" {
		t.Fatalf("EXPLAIN over Conn returned %v", res.Columns)
	}
}

func mustAction(t *testing.T, name string) sqldb.Action {
	t.Helper()
	a, ok := sqldb.ParseAction(name)
	if !ok {
		t.Fatalf("bad action %q", name)
	}
	return a
}

// TestOpenDurable: SQL mutations against a CSV-backed store survive a close
// and reopen, and recovered tables are not re-seeded from the CSV files.
func TestOpenDurable(t *testing.T) {
	dir := writeFixture(t)
	state := t.TempDir()

	store, err := OpenDurable(dir, state, sqldb.Options{Sync: sqldb.SyncBatch, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	conn := store.Conn("root")
	if _, err := conn.Exec("UPDATE orders SET qty = 99 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO orders VALUES (4, 'hat', 1, 12.0)"); err != nil {
		t.Fatal(err)
	}
	if st := store.Engine().Durability(); !st.Durable || st.Commits == 0 {
		t.Fatalf("durable store reports %+v", st)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenDurable(dir, state, sqldb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	res, err := store2.Conn("root").Exec("SELECT qty FROM orders WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(99) {
		t.Fatalf("durable UPDATE lost: %+v", res.Rows)
	}
	cnt, err := store2.Conn("root").Exec("SELECT COUNT(*) FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Rows[0][0] != int64(4) {
		t.Fatalf("recovered table was re-seeded from CSV: %+v", cnt.Rows)
	}

	// In-memory stores report not-durable.
	mem, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if st := mem.Engine().Durability(); st.Durable || st.Mode != "memory" {
		t.Fatalf("in-memory store reports %+v", st)
	}
}

// TestDurableSeedIsAtomic: each CSV seeds as one transaction (CREATE TABLE +
// INSERT in a single commit). If CREATE committed on its own, a later seed
// failure would leave a durable empty table that shadows the CSV on every
// subsequent open — loadDir skips files whose table already exists — so the
// data could never be re-seeded even after the file was fixed.
func TestDurableSeedIsAtomic(t *testing.T) {
	dir := writeFixture(t)
	state := t.TempDir()
	store, err := OpenDurable(dir, state, sqldb.Options{Sync: sqldb.SyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Two fixture CSVs, one commit each; a split CREATE + INSERT would
	// double the count.
	if st := store.Engine().Durability(); st.Commits != 2 {
		t.Fatalf("seeding two CSVs took %d commits, want 2 (one transaction per file)", st.Commits)
	}
}
