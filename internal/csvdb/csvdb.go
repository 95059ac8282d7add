// Package csvdb adapts directories of CSV files into BridgeScope
// connections, demonstrating the paper's §2.6 claim that the toolkit is
// database-agnostic: any data source that can satisfy core.Conn gets the
// full BridgeScope tool suite (annotated schema retrieval, per-action SQL
// tools, transactions, proxy) with no toolkit changes.
//
// A Store loads every *.csv file in a directory as a table (header row =
// column names, types inferred per column), executes SQL against it through
// the embedded engine, and can persist modified tables back to disk.
package csvdb

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"bridgescope/internal/core"
	"bridgescope/internal/sqldb"
	"bridgescope/internal/sqldb/vfs"
)

// Store is a CSV-backed datasource. All file I/O — loading CSVs and
// exporting them back — goes through the vfs seam, so fault injection and
// crash imaging cover the CSV export exactly like the engine's WAL.
type Store struct {
	dir    string
	fs     vfs.FS
	engine *sqldb.Engine
}

// Open loads every .csv file in dir as a table named after the file.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, vfs.OS())
}

// OpenFS is Open on an explicit filesystem. Tests pass a vfs.FaultFS to
// drive the load/save cycle through simulated crashes.
func OpenFS(dir string, fsys vfs.FS) (*Store, error) {
	engine := sqldb.NewEngine("csv:" + filepath.Base(dir))
	if err := loadDir(engine, fsys, dir); err != nil {
		return nil, err
	}
	return &Store{dir: dir, fs: fsys, engine: engine}, nil
}

// OpenDurable is Open backed by a persistent engine rooted at stateDir
// (WAL + snapshots, see sqldb.OpenEngine): recovered state — including any
// DML applied in earlier runs — takes precedence, and only CSV files whose
// table does not already exist are (re)loaded. Callers must Close the store
// to release the directory lock and checkpoint cleanly.
func OpenDurable(dir, stateDir string, opts sqldb.Options) (*Store, error) {
	if opts.Name == "" {
		opts.Name = "csv:" + filepath.Base(dir)
	}
	engine, err := sqldb.OpenEngine(stateDir, opts)
	if err != nil {
		return nil, fmt.Errorf("csvdb: %w", err)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.OS()
	}
	if err := loadDir(engine, fsys, dir); err != nil {
		engine.Close()
		return nil, err
	}
	return &Store{dir: dir, fs: fsys, engine: engine}, nil
}

// loadDir loads each CSV whose table is not already present in the engine.
func loadDir(engine *sqldb.Engine, fsys vfs.FS, dir string) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("csvdb: %w", err)
	}
	root := engine.NewSession("root")
	var names []string
	for _, name := range entries {
		if !strings.HasSuffix(strings.ToLower(name), ".csv") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, exists := engine.Table(TableName(name)); exists {
			continue // recovered from the durable state; don't re-seed
		}
		if err := loadCSV(root, fsys, filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("csvdb: loading %s: %w", name, err)
		}
	}
	return nil
}

// Close checkpoints and releases a durable store's engine; it is a no-op
// for purely in-memory stores.
func (s *Store) Close() error { return s.engine.Close() }

// Engine exposes the underlying engine (e.g. to configure grants).
func (s *Store) Engine() *sqldb.Engine { return s.engine }

// Grants exposes the privilege store.
func (s *Store) Grants() *sqldb.Grants { return s.engine.Grants() }

// Conn opens a BridgeScope-compatible connection as user.
func (s *Store) Conn(user string) core.Conn {
	return core.NewSQLDBConn(s.engine, user)
}

// Explain returns the execution plan the engine would use for sql as user.
// CSV-backed tables plan exactly like native ones — `CREATE INDEX` on a
// loaded table upgrades equality scans to index scans — demonstrating that
// plan metadata flows through the same Conn interface on every backend.
func (s *Store) Explain(user, sql string) (string, error) {
	return s.Conn(user).Explain(sql)
}

// TableName derives the table name from a CSV file name.
func TableName(file string) string {
	base := filepath.Base(file)
	base = strings.TrimSuffix(base, filepath.Ext(base))
	var sb strings.Builder
	for _, r := range base {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			sb.WriteRune(r + ('a' - 'A'))
		default:
			sb.WriteByte('_')
		}
	}
	name := sb.String()
	if name == "" || name[0] >= '0' && name[0] <= '9' {
		name = "t_" + name
	}
	return name
}

func loadCSV(root *sqldb.Session, fsys vfs.FS, path string) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return err
	}
	r := csv.NewReader(bytes.NewReader(data))
	r.TrimLeadingSpace = true
	records, err := r.ReadAll()
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("empty file")
	}
	header := records[0]
	rows := records[1:]
	kinds := inferKinds(header, rows)

	table := TableName(path)
	var ddl strings.Builder
	fmt.Fprintf(&ddl, "CREATE TABLE %s (", table)
	for i, col := range header {
		if i > 0 {
			ddl.WriteString(", ")
		}
		fmt.Fprintf(&ddl, "%s %s", sanitizeIdent(col), kindSQL(kinds[i]))
	}
	ddl.WriteString(")")
	// Seed CREATE + INSERT as one transaction. On a durable engine a bare
	// CREATE would commit on its own, and a subsequent INSERT failure would
	// leave an empty table in the WAL that shadows the CSV on every later
	// open (loadDir skips files whose table already exists).
	if err := root.Begin(); err != nil {
		return err
	}
	if _, err := root.Exec(ddl.String()); err != nil {
		_ = root.Rollback()
		return err
	}
	if len(rows) == 0 {
		return root.Commit()
	}
	var ins strings.Builder
	fmt.Fprintf(&ins, "INSERT INTO %s VALUES ", table)
	for ri, rec := range rows {
		if ri > 0 {
			ins.WriteString(", ")
		}
		ins.WriteString("(")
		for ci := range header {
			if ci > 0 {
				ins.WriteString(", ")
			}
			cell := ""
			if ci < len(rec) {
				cell = rec[ci]
			}
			ins.WriteString(renderCell(cell, kinds[ci]))
		}
		ins.WriteString(")")
	}
	if _, err := root.Exec(ins.String()); err != nil {
		_ = root.Rollback()
		return err
	}
	return root.Commit()
}

func sanitizeIdent(s string) string {
	s = strings.TrimSpace(s)
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			sb.WriteRune(r + ('a' - 'A'))
		default:
			sb.WriteByte('_')
		}
	}
	out := sb.String()
	if out == "" || (out[0] >= '0' && out[0] <= '9') {
		out = "c_" + out
	}
	return out
}

func inferKinds(header []string, rows [][]string) []sqldb.Kind {
	kinds := make([]sqldb.Kind, len(header))
	for c := range header {
		kind := sqldb.KindInt
		sawValue := false
		for _, rec := range rows {
			if c >= len(rec) {
				continue
			}
			cell := strings.TrimSpace(rec[c])
			if cell == "" {
				continue
			}
			sawValue = true
			switch kind {
			case sqldb.KindInt:
				if _, err := strconv.ParseInt(cell, 10, 64); err == nil {
					continue
				}
				kind = sqldb.KindFloat
				fallthrough
			case sqldb.KindFloat:
				if _, err := strconv.ParseFloat(cell, 64); err == nil {
					continue
				}
				kind = sqldb.KindText
			}
			if kind == sqldb.KindText {
				break
			}
		}
		if !sawValue {
			kind = sqldb.KindText
		}
		kinds[c] = kind
	}
	return kinds
}

func kindSQL(k sqldb.Kind) string {
	switch k {
	case sqldb.KindInt:
		return "INTEGER"
	case sqldb.KindFloat:
		return "REAL"
	default:
		return "TEXT"
	}
}

func renderCell(cell string, k sqldb.Kind) string {
	cell = strings.TrimSpace(cell)
	if cell == "" {
		return "NULL"
	}
	switch k {
	case sqldb.KindInt, sqldb.KindFloat:
		return cell
	default:
		return "'" + strings.ReplaceAll(cell, "'", "''") + "'"
	}
}

// Save writes every table back to dir as <table>.csv, persisting any
// modifications made through the toolkit. Each table is exported atomically
// through the vfs seam: rows go to a temp file that is fsynced and then
// renamed over the final name, and the directory is fsynced once at the
// end. A crash mid-export therefore leaves every table either fully old or
// fully new, never torn — and the temp files' ".csv.tmp-*" names fall
// outside the loader's *.csv filter, so a leftover temp is ignored on the
// next open.
func (s *Store) Save(dir string) error {
	if dir == "" {
		dir = s.dir
	}
	if err := s.fs.MkdirAll(dir); err != nil {
		return err
	}
	root := s.engine.NewSession("root")
	for _, name := range s.engine.TableNames() {
		res, err := root.Exec("SELECT * FROM " + name)
		if err != nil {
			return fmt.Errorf("csvdb: dumping %s: %w", name, err)
		}
		if err := s.saveTable(dir, name, res); err != nil {
			return fmt.Errorf("csvdb: exporting %s: %w", name, err)
		}
	}
	return s.fs.SyncDir(dir)
}

// saveTable writes one table's rows to dir/<name>.csv via temp file, fsync,
// and atomic rename.
func (s *Store) saveTable(dir, name string, res *sqldb.Result) error {
	f, err := s.fs.CreateTemp(dir, name+".csv.tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		_ = s.fs.Remove(tmp)
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(res.Columns); err != nil {
		return fail(err)
	}
	for _, row := range res.Rows {
		rec := make([]string, len(row))
		for i, v := range row {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := w.Write(rec); err != nil {
			return fail(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, filepath.Join(dir, name+".csv")); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	return nil
}
