package sqldb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"strings"

	"bridgescope/internal/sqldb/vfs"
)

// A snapshot is a point-in-time copy of the whole catalog — grants, tables
// (schema + rows + index definitions), and views — plus the WAL segment
// number recovery should start replaying from. Layout:
//
//	magic | uvarint walSeg | grants | tables | views | u32 CRC-32 of all prior bytes
//
// Snapshots are written to a temp file and renamed into place, so a crash
// mid-checkpoint leaves the previous snapshot (or none) intact, and the CRC
// rejects any partially persisted file.
const snapMagic = "SQLDBSNAP1"

// encodeSnapshot serializes the engine's full state. The caller holds the
// engine write lock, so the encoded buffer is a consistent copy that can be
// written to disk after the lock is released.
func encodeSnapshot(e *Engine, walSeg uint64) []byte {
	b := []byte(snapMagic)
	b = binary.AppendUvarint(b, walSeg)

	changes := e.grants.dump()
	b = binary.AppendUvarint(b, uint64(len(changes)))
	for _, ch := range changes {
		b = appendString(b, "") // reserved per-change header (future versioning)
		b = append(b, encodeGrantRec(ch)...)
	}

	b = binary.AppendUvarint(b, uint64(len(e.tableOrder)))
	for _, lo := range e.tableOrder {
		b = appendTableSnap(b, e.tables[lo])
	}

	b = binary.AppendUvarint(b, uint64(len(e.viewOrder)))
	for _, lo := range e.viewOrder {
		b = appendString(b, ViewSQL(e.views[lo]))
	}

	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Image encodes the engine's committed state — grants, tables with their
// rows and index definitions, and views — in the snapshot format.
// Uncommitted transactions contribute nothing. LoadImage turns the bytes
// back into an independent engine, so one image can reset a fixture many
// times without re-executing the SQL that built it.
func (e *Engine) Image() []byte {
	// Same lock order as Checkpoint: quiesce writers through the lock
	// manager, then share Engine.mu with readers while encoding.
	unlock := e.locks.lockAll()
	defer unlock()
	e.mu.RLock()
	img := encodeSnapshot(e, 0)
	e.mu.RUnlock()
	return img
}

// LoadImage returns a new in-memory engine holding the state encoded by
// Image. The engine starts with an empty plan cache and fresh statistics,
// and has no WAL; nothing it does reaches the engine the image came from.
func LoadImage(name string, img []byte) (*Engine, error) {
	e := NewEngine(name)
	if _, err := loadSnapshot(e, img); err != nil {
		return nil, err
	}
	return e, nil
}

func appendTableSnap(b []byte, t *Table) []byte {
	b = appendString(b, t.Name)
	b = binary.AppendUvarint(b, t.epoch)

	b = binary.AppendUvarint(b, uint64(len(t.Columns)))
	for _, c := range t.Columns {
		b = appendString(b, c.Name)
		b = append(b, byte(c.Type))
		flags := byte(0)
		if c.NotNull {
			flags |= 1
		}
		if c.PrimaryKey {
			flags |= 2
		}
		if c.Unique {
			flags |= 4
		}
		b = append(b, flags)
		def := ""
		if c.Default != nil {
			def = c.Default.String()
		}
		b = appendString(b, def)
	}

	b = binary.AppendUvarint(b, uint64(len(t.PrimaryKey)))
	for _, c := range t.PrimaryKey {
		b = appendString(b, c)
	}

	b = binary.AppendUvarint(b, uint64(len(t.ForeignKeys)))
	for _, fk := range t.ForeignKeys {
		b = binary.AppendUvarint(b, uint64(len(fk.Columns)))
		for _, c := range fk.Columns {
			b = appendString(b, c)
		}
		b = appendString(b, fk.ParentTable)
		b = binary.AppendUvarint(b, uint64(len(fk.ParentColumns)))
		for _, c := range fk.ParentColumns {
			b = appendString(b, c)
		}
	}

	// Indexes in column order, so the same state always encodes to the
	// same bytes.
	cols := slices.Sorted(maps.Keys(t.indexes))
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, col := range cols {
		ix := t.indexes[col]
		b = appendString(b, ix.Name)
		b = appendString(b, ix.Column)
		if ix.Unique {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}

	b = binary.AppendVarint(b, t.nextID)
	// Serialize the latest committed-visible version of each row:
	// uncommitted transactions contribute nothing (their redo frames, if
	// they ever commit, land after the checkpoint's WAL rotation and replay
	// on top of this state), which is what makes checkpointing safe while
	// transactions are open.
	type snapRow struct {
		id   int64
		vals []Value
	}
	var live []snapRow
	_ = t.visibleRows(latestView(nil), func(r *rowEntry, rv *rowVersion) error {
		live = append(live, snapRow{id: r.id, vals: rv.vals})
		return nil
	})
	b = binary.AppendUvarint(b, uint64(len(live)))
	for _, r := range live {
		b = binary.AppendVarint(b, r.id)
		for _, v := range r.vals {
			b = appendValue(b, v)
		}
	}
	return b
}

// loadSnapshot verifies and applies snapshot bytes to an empty engine,
// returning the WAL segment replay should start from. Index and PK
// structures are bulk-built after the rows are loaded (hash everything, one
// sort over the distinct values) rather than maintained per row.
//
// The decoder accepts only the encoding encodeSnapshot writes — minimal
// varints, 0/1 flags, grants in dump order, indexes in column order, no
// trailing bytes — so an accepted image re-encodes to the same bytes. View
// and column-default SQL are the exception: they are re-rendered from their
// parsed form (FuzzLoadSnapshot).
func loadSnapshot(e *Engine, data []byte) (walSeg uint64, err error) {
	if len(data) < len(snapMagic)+4 {
		return 0, fmt.Errorf("snapshot: file too short")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return 0, fmt.Errorf("snapshot: CRC mismatch")
	}
	if string(body[:len(snapMagic)]) != snapMagic {
		return 0, fmt.Errorf("snapshot: bad magic")
	}
	r := &walReader{b: body[len(snapMagic):]}

	walSeg = r.uvarint()

	nGrants := r.uvarint()
	var grants []grantChange
	for i := uint64(0); i < nGrants && r.err == nil; i++ {
		if hdr := r.str(); hdr != "" {
			r.fail("snapshot: unsupported grant header %q", hdr)
			break
		}
		if typ := r.byte(); typ != recGrant {
			r.fail("snapshot: expected grant record, got type %d", typ)
			break
		}
		ch := decodeGrantChange(r)
		if r.err == nil {
			e.grants.apply(ch)
			grants = append(grants, ch)
		}
	}
	if r.err == nil && !slices.EqualFunc(grants, e.grants.dump(), sameGrantChange) {
		r.fail("snapshot: grants are not in canonical dump form")
	}

	nTables := r.uvarint()
	for i := uint64(0); i < nTables && r.err == nil; i++ {
		if err := loadTableSnap(e, r); err != nil {
			return 0, err
		}
	}

	nViews := r.uvarint()
	for i := uint64(0); i < nViews && r.err == nil; i++ {
		sql := r.str()
		if r.err != nil {
			break
		}
		stmts, err := ParseScript(sql)
		if err != nil || len(stmts) != 1 {
			return 0, fmt.Errorf("snapshot: bad view DDL %q: %v", sql, err)
		}
		cv, ok := stmts[0].(*CreateViewStmt)
		if !ok {
			return 0, fmt.Errorf("snapshot: view entry is not CREATE VIEW: %q", sql)
		}
		if err := e.createView(&View{Name: cv.Name, Query: cv.Query}); err != nil {
			return 0, err
		}
	}

	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes after the views", len(r.b))
	}
	if r.err != nil {
		return 0, fmt.Errorf("snapshot: %w", r.err)
	}
	return walSeg, nil
}

func sameGrantChange(a, b grantChange) bool {
	return a.Op == b.Op && a.User == b.User && a.Action == b.Action &&
		a.Object == b.Object && a.Super == b.Super && slices.Equal(a.Columns, b.Columns)
}

func loadTableSnap(e *Engine, r *walReader) error {
	name := r.str()
	epoch := r.uvarint()
	if r.err == nil && epoch == 0 {
		r.fail("snapshot: table %q has epoch 0", name)
	}

	nCols := r.uvarint()
	if nCols > uint64(len(r.b)) {
		r.fail("snapshot: column count %d exceeds %d remaining bytes", nCols, len(r.b))
		return r.err
	}
	cols := make([]Column, 0, nCols)
	for i := uint64(0); i < nCols; i++ {
		c := Column{Name: r.str(), Type: Kind(r.byte())}
		flags := r.byte()
		if flags&^7 != 0 {
			r.fail("snapshot: column %s.%s has unknown flags %#x", name, c.Name, flags)
		}
		c.NotNull = flags&1 != 0
		c.PrimaryKey = flags&2 != 0
		c.Unique = flags&4 != 0
		def := r.str()
		if r.err != nil {
			return r.err
		}
		if def != "" {
			expr, err := parseExprSQL(def)
			if err != nil {
				return fmt.Errorf("snapshot: column %s.%s default %q: %w", name, c.Name, def, err)
			}
			c.Default = expr
		}
		cols = append(cols, c)
	}

	readStrings := func() []string {
		n := r.uvarint()
		if n > uint64(len(r.b)) {
			r.fail("snapshot: list length %d exceeds %d remaining bytes", n, len(r.b))
			return nil
		}
		out := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			out = append(out, r.str())
		}
		return out
	}

	pk := readStrings()

	nFKs := r.uvarint()
	if nFKs > uint64(len(r.b)) {
		r.fail("snapshot: FK count %d exceeds %d remaining bytes", nFKs, len(r.b))
		return r.err
	}
	fks := make([]ForeignKey, 0, nFKs)
	for i := uint64(0); i < nFKs; i++ {
		fk := ForeignKey{Columns: readStrings()}
		fk.ParentTable = r.str()
		fk.ParentColumns = readStrings()
		fks = append(fks, fk)
	}

	type ixDef struct {
		name, col string
		unique    bool
	}
	nIdx := r.uvarint()
	if nIdx > uint64(len(r.b)) {
		r.fail("snapshot: index count %d exceeds %d remaining bytes", nIdx, len(r.b))
		return r.err
	}
	idxs := make([]ixDef, 0, nIdx)
	for i := uint64(0); i < nIdx; i++ {
		ix := ixDef{name: r.str(), col: r.str(), unique: r.bool()}
		if i > 0 && strings.ToLower(ix.col) <= strings.ToLower(idxs[i-1].col) {
			r.fail("snapshot: indexes of %q out of column order", name)
		}
		idxs = append(idxs, ix)
	}

	nextID := r.varint()
	nRows := r.uvarint()
	if r.err != nil {
		return r.err
	}
	// Every row costs at least one byte for its id and one per value (the
	// kind byte), so a count beyond that is corrupt; the guard also bounds
	// the block allocations below.
	if nRows > uint64(len(r.b)) || nRows*(1+nCols) > uint64(len(r.b)) {
		r.fail("snapshot: row count %d exceeds %d remaining bytes", nRows, len(r.b))
		return r.err
	}

	t, err := newTable(name, cols, pk, fks)
	if err != nil {
		return fmt.Errorf("snapshot: table %q: %w", name, err)
	}
	// Load rows raw — no per-row index/PK hooks; everything secondary is
	// bulk-built below (the ordered-index bulk build from the range-scan PR).
	// Entries, versions and values come from three per-table blocks rather
	// than three allocations per row. Each row's vals is capped at its
	// length, so an append (ALTER TABLE ADD COLUMN) reallocates instead of
	// writing into the next row.
	entries := make([]rowEntry, nRows)
	versions := make([]rowVersion, nRows)
	nc := len(cols)
	block := make([]Value, int(nRows)*nc)
	t.rows = make([]*rowEntry, nRows)
	t.byID = make(map[int64]*rowEntry, nRows)
	for i := range entries {
		id := r.varint()
		vals := block[i*nc : (i+1)*nc : (i+1)*nc]
		for j := range vals {
			vals[j] = r.value()
		}
		if r.err != nil {
			return r.err
		}
		if t.byID[id] != nil {
			return fmt.Errorf("snapshot: duplicate row id %d in table %q", id, name)
		}
		// Snapshot rows are committed-ancient: xmin 0 is visible to every
		// snapshot the restarted engine will ever take.
		versions[i].vals = vals
		entries[i] = rowEntry{id: id, v: &versions[i]}
		t.rows[i] = &entries[i]
		t.byID[id] = &entries[i]
	}
	t.nextID = nextID
	t.epoch = epoch // createTable keeps it and advances the engine counter
	for _, ix := range idxs {
		if t.ColIndex(ix.col) < 0 {
			return fmt.Errorf("snapshot: index %q on missing column %q.%q", ix.name, name, ix.col)
		}
		t.addIndex(&Index{Name: ix.name, Column: ix.col, Unique: ix.unique})
	}
	if len(t.indexes) != len(idxs) { // a UNIQUE column's index is missing
		return fmt.Errorf("snapshot: table %q lists %d indexes, has %d", name, len(idxs), len(t.indexes))
	}
	t.rebuildPK()
	return e.createTable(t)
}

// parseExprSQL round-trips an expression through the SELECT grammar (the
// parser has no bare-expression entry point).
func parseExprSQL(s string) (Expr, error) {
	stmt, err := Parse("SELECT " + s)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok || len(sel.Items) != 1 || sel.Items[0].Expr == nil {
		return nil, fmt.Errorf("not a single expression")
	}
	return sel.Items[0].Expr, nil
}

// writeSnapshotFile atomically persists snapshot bytes for walSeg: temp
// file, write, fsync, rename into place, directory fsync. A failure at any
// step leaves the previous snapshot (or none) intact; the orphaned temp file
// is removed here on error and swept by the next OpenEngine after a crash.
func writeSnapshotFile(fsys vfs.FS, dir string, walSeg uint64, data []byte) error {
	tmp, err := fsys.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), snapPath(dir, walSeg)); err != nil {
		return err
	}
	// fsync the directory so the rename itself survives a crash.
	return fsys.SyncDir(dir)
}
