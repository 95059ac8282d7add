package sqldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"sync"
	"testing"
)

// imageSourceEngine builds an engine that uses every part of the image
// format: a composite primary key, foreign keys, a UNIQUE column (with its
// automatic index), a secondary index, NOT NULL and DEFAULT columns, every
// value kind, a view, and table, column and superuser grants.
func imageSourceEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine("src")
	s := e.NewSession("root")
	for _, sql := range []string{
		`CREATE TABLE items (id INT PRIMARY KEY, name TEXT NOT NULL, sku TEXT UNIQUE, category TEXT DEFAULT 'misc', price REAL, active BOOL)`,
		`CREATE TABLE sales (order_id INT PRIMARY KEY, item_id INT REFERENCES items(id), qty INT NOT NULL DEFAULT 1)`,
		`CREATE TABLE stock (store INT, item_id INT, n INT, PRIMARY KEY (store, item_id))`,
		`CREATE INDEX items_category ON items (category)`,
		`INSERT INTO items VALUES (1, 'shirt', 'S-1', 'women', 19.5, TRUE), (2, 'jeans', 'J-2', 'men', 49.0, FALSE), (3, 'hat', NULL, NULL, NULL, NULL)`,
		`INSERT INTO items (id, name, sku) VALUES (4, 'scarf', 'SC-4')`,
		`INSERT INTO sales (order_id, item_id) VALUES (10, 1)`,
		`INSERT INTO sales VALUES (11, 2, 3), (12, 4, 2)`,
		`INSERT INTO stock VALUES (1, 1, 5), (1, 2, 0), (2, 1, 7)`,
		`DELETE FROM sales WHERE order_id = 11`,
		`UPDATE items SET price = 21.0 WHERE id = 1`,
		`CREATE VIEW cheap AS SELECT id, name FROM items WHERE price < 30`,
		`GRANT SELECT, INSERT ON items TO alice`,
		`GRANT SELECT (id, name) ON items TO bob`,
		`GRANT SELECT ON * TO carol`,
	} {
		s.MustExec(sql)
	}
	e.Grants().SetSuperuser("dave", false)
	return e
}

func mustLoadImage(t testing.TB, img []byte) *Engine {
	t.Helper()
	e, err := LoadImage("copy", img)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestImageRoundTrip(t *testing.T) {
	src := imageSourceEngine(t)
	img := src.Image()
	if again := src.Image(); !bytes.Equal(again, img) {
		t.Fatal("two images of the same state differ")
	}
	l := mustLoadImage(t, img)
	if got, want := dumpEngine(l), dumpEngine(src); got != want {
		t.Fatalf("loaded engine differs from its source:\n--- loaded\n%s--- source\n%s", got, want)
	}
	if !bytes.Equal(l.Image(), img) {
		t.Fatal("the loaded engine's image differs from the image it was loaded from")
	}
	if errs := l.CheckConsistency(); len(errs) > 0 {
		t.Fatalf("loaded engine inconsistent: %v", errs)
	}
	for _, q := range []string{
		`SELECT name FROM items WHERE category = 'women'`,
		`SELECT name FROM items WHERE sku = 'J-2'`,
		`SELECT name FROM items WHERE id BETWEEN 2 AND 3`,
		`SELECT n FROM stock WHERE store = 1 AND item_id = 2`,
	} {
		if got, want := explainText(t, l.NewSession("root"), q), explainText(t, src.NewSession("root"), q); got != want {
			t.Errorf("EXPLAIN %s:\nloaded: %s\nsource: %s", q, got, want)
		}
	}
	for _, tc := range []struct {
		user, sql string
		ok        bool
	}{
		{"alice", `SELECT * FROM items`, true},
		{"alice", `SELECT * FROM sales`, false},
		{"bob", `SELECT id, name FROM items`, true},
		{"bob", `SELECT price FROM items`, false},
		{"carol", `SELECT * FROM cheap`, true},
	} {
		_, err := l.NewSession(tc.user).Exec(tc.sql)
		if (err == nil) != tc.ok {
			t.Errorf("%s: %s: err = %v, want ok=%v", tc.user, tc.sql, err, tc.ok)
		}
	}
}

func TestImageLoadStartsWithEmptyPlanCache(t *testing.T) {
	src := imageSourceEngine(t)
	src.NewSession("root").MustExec(`SELECT * FROM items`)
	img := src.Image()
	for i := 0; i < 2; i++ {
		l := mustLoadImage(t, img)
		if got := l.PlanCacheSnapshot(); got.Size != 0 || got.Hits != 0 || got.Misses != 0 {
			t.Fatalf("load %d: plan cache not empty: %+v", i, got)
		}
		l.NewSession("root").MustExec(`SELECT * FROM items`)
	}
}

// committedContent is dumpEngine without the row-id counters: an open
// transaction's INSERT draws an id at once, so the counter may run ahead of
// the committed rows, as it does after any rollback.
func committedContent(e *Engine) string {
	var keep []string
	for _, line := range strings.Split(dumpEngine(e), "\n") {
		if !strings.HasPrefix(line, "nextID ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func TestImageExcludesUncommittedTxn(t *testing.T) {
	src := imageSourceEngine(t)
	want := committedContent(src)
	s := src.NewSession("root")
	s.MustExec(`BEGIN`)
	s.MustExec(`INSERT INTO items (id, name) VALUES (9, 'pending')`)
	s.MustExec(`UPDATE items SET name = 'renamed' WHERE id = 2`)
	s.MustExec(`DELETE FROM stock WHERE store = 2`)
	l := mustLoadImage(t, src.Image())
	if got := committedContent(l); got != want {
		t.Fatalf("image holds uncommitted changes:\n%s", got)
	}
	s.MustExec(`COMMIT`)
	if committedContent(src) == want {
		t.Fatal("the commit did not change the source")
	}
	if got := committedContent(l); got != want {
		t.Fatal("a commit on the source reached the loaded engine")
	}
}

func TestImageLoadsAreIndependent(t *testing.T) {
	src := imageSourceEngine(t)
	want := dumpEngine(src)
	img := src.Image()

	l := mustLoadImage(t, img)
	l.Grants().GrantAll("mallory", "*")
	s := l.NewSession("root")
	for _, sql := range []string{
		`INSERT INTO items (id, name, sku, category) VALUES (5, 'belt', 'B-5', 'men')`,
		`UPDATE items SET category = 'kids' WHERE id = 1`,
		`DELETE FROM stock WHERE store = 1 AND item_id = 2`,
		`ALTER TABLE stock ADD COLUMN note TEXT DEFAULT 'n/a'`,
		`CREATE TABLE extra (id INT PRIMARY KEY, v TEXT)`,
		`INSERT INTO extra VALUES (1, 'x')`,
		`DROP VIEW cheap`,
		`DROP TABLE sales`,
	} {
		s.MustExec(sql)
	}
	// The new rows are reachable through every access path, and the
	// constraints still hold.
	for q, wantText := range map[string]string{
		`SELECT name FROM items WHERE category = 'men' ORDER BY id`: "jeans\nbelt",
		`SELECT name FROM items WHERE sku = 'B-5'`:                  "belt",
		`SELECT id FROM items WHERE category = 'kids'`:              "1",
		`SELECT store, item_id, n, note FROM stock ORDER BY store`:  "1 | 1 | 5 | n/a\n2 | 1 | 7 | n/a",
	} {
		r := s.MustExec(q)
		var lines []string
		for _, row := range r.Rows {
			var cells []string
			for _, v := range row {
				cells = append(cells, v.String())
			}
			lines = append(lines, strings.Join(cells, " | "))
		}
		if got := strings.Join(lines, "\n"); got != wantText {
			t.Errorf("%s:\ngot  %q\nwant %q", q, got, wantText)
		}
	}
	if _, err := s.Exec(`INSERT INTO items (id, name, sku) VALUES (6, 'dup', 'S-1')`); err == nil {
		t.Error("UNIQUE violation accepted on a loaded engine")
	}
	if _, err := s.Exec(`INSERT INTO items (id, name) VALUES (2, 'dup')`); err == nil {
		t.Error("PRIMARY KEY violation accepted on a loaded engine")
	}

	if got := dumpEngine(src); got != want {
		t.Fatal("writes on a loaded engine reached its source")
	}
	next := mustLoadImage(t, img)
	if got := dumpEngine(next); got != want {
		t.Fatal("writes on one loaded engine reached the next load")
	}
	if next.Grants().Has("mallory", ActionSelect, "items") {
		t.Fatal("a grant on one loaded engine reached the next load")
	}
}

// TestImageConcurrentWithWriters takes images while writers commit: every
// image must load into a consistent engine (run under -race in CI).
func TestImageConcurrentWithWriters(t *testing.T) {
	src := imageSourceEngine(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := src.NewSession("root")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.MustExec(fmt.Sprintf("INSERT INTO stock VALUES (%d, %d, 1)", 10+w, i))
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		l := mustLoadImage(t, src.Image())
		if errs := l.CheckConsistency(); len(errs) > 0 {
			t.Fatalf("image %d inconsistent: %v", i, errs)
		}
	}
	close(stop)
	wg.Wait()
}

// TestImageRowValuesAreCapped pins the block allocation in loadTableSnap:
// each row's values share one per-table block, so they must be capped at
// their length for an append to reallocate rather than overwrite the next
// row.
func TestImageRowValuesAreCapped(t *testing.T) {
	l := mustLoadImage(t, imageSourceEngine(t).Image())
	for _, name := range l.TableNames() {
		tab, _ := l.Table(name)
		for _, r := range tab.rows {
			if cap(r.v.vals) != len(r.v.vals) {
				t.Fatalf("%s row %d: cap %d, len %d", name, r.id, cap(r.v.vals), len(r.v.vals))
			}
		}
	}
}

// FuzzLoadSnapshot feeds arbitrary snapshot bodies to the decoder. The
// trailing CRC is recomputed over the fuzzed body so the input reaches the
// decoder instead of stopping at the checksum. Decoding must never panic,
// and an accepted image must re-encode to the same bytes. View and
// column-default SQL are stored as text and re-rendered from the parsed
// form, so for images holding either the check is that one re-encoding
// reaches a fixed point.
func FuzzLoadSnapshot(f *testing.F) {
	for _, e := range []*Engine{NewEngine("empty"), imageSourceEngine(f)} {
		img := e.Image()
		f.Add(img[:len(img)-4])
	}
	plain := NewEngine("plain")
	s := plain.NewSession("root")
	s.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, v TEXT UNIQUE, f REAL, b BOOL)`)
	s.MustExec(`INSERT INTO t VALUES (1, 'a', 1.5, TRUE), (-300, NULL, NULL, FALSE)`)
	plain.Grants().GrantColumns("u", ActionSelect, "t", nil)
	img := plain.Image()
	f.Add(img[:len(img)-4])
	f.Add([]byte(snapMagic))

	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.ChecksumIEEE(body))
		e := NewEngine("fuzz")
		seg, err := loadSnapshot(e, data)
		if err != nil {
			return
		}
		again := encodeSnapshot(e, seg)
		if bytes.Equal(again, data) {
			return
		}
		if !holdsSQLText(e) {
			t.Fatalf("accepted image re-encodes differently:\nin  %x\nout %x", data, again)
		}
		e2 := NewEngine("fuzz")
		if _, err := loadSnapshot(e2, again); err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if third := encodeSnapshot(e2, seg); !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", again, third)
		}
	})
}

func holdsSQLText(e *Engine) bool {
	if len(e.viewOrder) > 0 {
		return true
	}
	for _, t := range e.tables {
		for _, c := range t.Columns {
			if c.Default != nil {
				return true
			}
		}
	}
	return false
}
