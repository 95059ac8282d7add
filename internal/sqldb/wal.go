package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"bridgescope/internal/sqldb/vfs"
)

// SyncMode controls when a commit is made durable on disk.
type SyncMode int

const (
	// SyncBatch is group commit: concurrent committers append their redo
	// records to an in-memory batch and a background flusher makes the whole
	// group durable with a single fsync. Every committer still waits for its
	// group's fsync before the statement returns, so acknowledged commits
	// survive a crash — the batching only amortizes the fsync cost.
	SyncBatch SyncMode = iota
	// SyncAlways fsyncs every commit individually before acknowledging it.
	SyncAlways
	// SyncOff writes commits to the OS page cache but never fsyncs; a crash
	// may lose the tail of acknowledged commits (but never corrupts the log).
	SyncOff
)

// String returns the knob spelling of the mode.
func (m SyncMode) String() string {
	switch m {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// ParseSyncMode converts a knob spelling ("off", "batch", "always") to a
// SyncMode.
func ParseSyncMode(s string) (SyncMode, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "batch", "group":
		return SyncBatch, true
	case "always", "fsync":
		return SyncAlways, true
	case "off", "none":
		return SyncOff, true
	}
	return SyncBatch, false
}

// WAL record types. A committed transaction is one CRC-framed frame whose
// payload is a commit-timestamp record followed by redo records in
// execution order.
//
// Row records carry the table's epoch — a counter assigned when the table
// was created — beside its name. A transaction can commit DML sequenced
// after another session's committed DROP + re-CREATE of the same name, and
// with the name alone replay would apply its records to the new table (the
// heap never did: those rows died with the old one). The epoch pins each
// record to the exact table incarnation it mutated. DDL records carry the
// epoch the created table was assigned (0 for non-CREATE DDL) so replay
// reconstructs the same incarnation numbering.
//
// The commit record carries the transaction's MVCC commit timestamp:
// replay stamps the frame's row versions with it, reconstructing the same
// visibility order the live engine had, and the commit clock resumes past
// the highest replayed timestamp.
const (
	recInsert byte = 1 // table, epoch, row id, row image
	recDelete byte = 2 // table, epoch, row id
	recUpdate byte = 3 // table, epoch, row id, new row image
	recDDL    byte = 4 // SQL text + created-table epoch, replayed through the parser/executor
	recGrant  byte = 5 // privilege-store mutation (also covers direct API use)
	recCommit byte = 6 // MVCC commit timestamp of the frame's transaction
)

// grantOp identifies a privilege-store mutation in a recGrant record.
type grantOp byte

const (
	grantOpGrant grantOp = iota
	grantOpRevoke
	grantOpGrantCols
	grantOpSuper
)

// grantChange is one privilege-store mutation, as logged to the WAL and
// dumped into snapshots. It is self-contained (no SQL) because grants can be
// mutated directly through Engine.Grants() without any statement text.
type grantChange struct {
	Op      grantOp
	User    string
	Action  Action
	Object  string
	Columns []string
	Super   bool
}

// walRec is the decoded form of one WAL record.
type walRec struct {
	typ      byte
	table    string
	epoch    uint64
	rowID    int64
	vals     []Value
	sql      string
	grant    grantChange
	commitTS uint64 // recCommit
}

// --- binary encoding ---

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		b = binary.AppendVarint(b, v.I)
	case KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	case KindText:
		b = appendString(b, v.S)
	case KindBool:
		if v.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func appendRow(b []byte, vals []Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = appendValue(b, v)
	}
	return b
}

func encodeInsertRec(table string, epoch uint64, id int64, vals []Value) []byte {
	b := []byte{recInsert}
	b = appendString(b, table)
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendVarint(b, id)
	return appendRow(b, vals)
}

func encodeDeleteRec(table string, epoch uint64, id int64) []byte {
	b := []byte{recDelete}
	b = appendString(b, table)
	b = binary.AppendUvarint(b, epoch)
	return binary.AppendVarint(b, id)
}

func encodeUpdateRec(table string, epoch uint64, id int64, vals []Value) []byte {
	b := []byte{recUpdate}
	b = appendString(b, table)
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendVarint(b, id)
	return appendRow(b, vals)
}

func encodeDDLRec(sql string, epoch uint64) []byte {
	b := appendString([]byte{recDDL}, sql)
	return binary.AppendUvarint(b, epoch)
}

func encodeCommitRec(ts uint64) []byte {
	return binary.AppendUvarint([]byte{recCommit}, ts)
}

func encodeGrantRec(ch grantChange) []byte {
	b := []byte{recGrant, byte(ch.Op)}
	b = appendString(b, ch.User)
	b = append(b, byte(ch.Action))
	b = appendString(b, ch.Object)
	b = binary.AppendUvarint(b, uint64(len(ch.Columns)))
	for _, c := range ch.Columns {
		b = appendString(b, c)
	}
	if ch.Super {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

// walReader is a bounds-checked cursor over encoded WAL/snapshot bytes.
// Every accessor degrades to a sticky error on malformed input — decoding
// corrupt or truncated frames must error, never panic (fuzzed).
type walReader struct {
	b   []byte
	err error
}

func (r *walReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *walReader) empty() bool { return len(r.b) == 0 || r.err != nil }

func (r *walReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail("unexpected end of record")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *walReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 { // the encoder never pads with 0x80 0x00
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *walReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail("bad varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bool decodes a flag byte. Only 0 and 1 are valid, so every accepted
// encoding is the one the encoder writes.
func (r *walReader) bool() bool {
	switch c := r.byte(); c {
	case 0, 1:
		return c == 1
	default:
		r.fail("bad bool byte %d", c)
		return false
	}
}

func (r *walReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail("string length %d exceeds %d remaining bytes", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *walReader) value() Value {
	kind := Kind(r.byte())
	switch kind {
	case KindNull:
		return Null()
	case KindInt:
		return NewInt(r.varint())
	case KindFloat:
		if r.err != nil {
			return Value{}
		}
		if len(r.b) < 8 {
			r.fail("truncated float value")
			return Value{}
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
		r.b = r.b[8:]
		return NewFloat(f)
	case KindText:
		return NewText(r.str())
	case KindBool:
		return NewBool(r.bool())
	}
	r.fail("unknown value kind %d", kind)
	return Value{}
}

func (r *walReader) row() []Value {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	// Each value costs at least one byte, so n > len(b) is corruption — the
	// bound also caps the allocation below.
	if n > uint64(len(r.b)) {
		r.fail("row arity %d exceeds %d remaining bytes", n, len(r.b))
		return nil
	}
	vals := make([]Value, 0, n)
	for i := uint64(0); i < n; i++ {
		vals = append(vals, r.value())
		if r.err != nil {
			return nil
		}
	}
	return vals
}

// decodeGrantChange decodes the body of an encodeGrantRec record (the bytes
// after the recGrant type byte). WAL replay and snapshot loading share it,
// so every site that must mirror encodeGrantRec field-for-field is here.
func decodeGrantChange(r *walReader) grantChange {
	ch := grantChange{Op: grantOp(r.byte()), User: r.str(), Action: Action(r.byte()), Object: r.str()}
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("grant column count %d exceeds %d remaining bytes", n, len(r.b))
		return ch
	}
	for i := uint64(0); i < n; i++ {
		ch.Columns = append(ch.Columns, r.str())
	}
	ch.Super = r.bool()
	return ch
}

// decodeRecords parses a frame payload (after the LSN) into records.
func decodeRecords(b []byte) ([]walRec, error) {
	r := &walReader{b: b}
	var out []walRec
	for !r.empty() {
		rec := walRec{typ: r.byte()}
		switch rec.typ {
		case recInsert, recUpdate:
			rec.table = r.str()
			rec.epoch = r.uvarint()
			rec.rowID = r.varint()
			rec.vals = r.row()
		case recDelete:
			rec.table = r.str()
			rec.epoch = r.uvarint()
			rec.rowID = r.varint()
		case recDDL:
			rec.sql = r.str()
			rec.epoch = r.uvarint()
		case recGrant:
			rec.grant = decodeGrantChange(r)
		case recCommit:
			rec.commitTS = r.uvarint()
		default:
			r.fail("unknown record type %d", rec.typ)
		}
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, rec)
	}
	return out, r.err
}

// --- frame layer ---

// A frame is one committed transaction on disk:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//	payload = uvarint LSN | records...
//
// Replay accepts the longest prefix of valid frames; a short or CRC-failing
// frame is a torn tail from a crash mid-write and everything from it on is
// discarded.
const frameHeaderSize = 8

var (
	errTornFrame = errors.New("wal: torn frame")
	errBadCRC    = errors.New("wal: frame CRC mismatch")
)

func encodeFrame(lsn uint64, recs [][]byte) []byte {
	payload := binary.AppendUvarint(nil, lsn)
	for _, r := range recs {
		payload = append(payload, r...)
	}
	frame := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// readFrame parses the frame at the head of b, returning its payload and
// total on-disk size. errTornFrame means b ends mid-frame; errBadCRC means
// the frame is complete but corrupt. Both stop replay at this offset.
func readFrame(b []byte) (payload []byte, size int, err error) {
	if len(b) < frameHeaderSize {
		return nil, 0, errTornFrame
	}
	n := int(binary.LittleEndian.Uint32(b[0:4]))
	if n < 1 || n > len(b)-frameHeaderSize {
		return nil, 0, errTornFrame
	}
	payload = b[frameHeaderSize : frameHeaderSize+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, errBadCRC
	}
	return payload, frameHeaderSize + n, nil
}

// decodeFramePayload splits a frame payload into its LSN and records.
func decodeFramePayload(payload []byte) (lsn uint64, recs []walRec, err error) {
	r := &walReader{b: payload}
	lsn = r.uvarint()
	if r.err != nil {
		return 0, nil, r.err
	}
	recs, err = decodeRecords(r.b)
	return lsn, recs, err
}

// --- the log writer ---

// flushGroup is one group-commit generation: every committer whose frame is
// in the batch waits on done and shares err.
type flushGroup struct {
	done chan struct{}
	err  error
}

// syncToken is a committer's claim on durability: wait blocks until the
// commit's frame is on disk (per the sync mode) and reports the I/O error if
// the flush failed. A nil token (in-memory engine, read-only statement)
// waits for nothing.
//
// In batch mode a background flusher drives the group to disk and wait just
// blocks on it. In always/off mode there is no flusher: the first waiter
// whose group is still open performs the flush itself (flushFor), so the
// write+fsync happens on wait — after the committer has released its engine
// locks — rather than inside commit under them.
type syncToken struct {
	w   *wal
	g   *flushGroup
	err error
	// next chains a second durability claim onto this one (joinTokens): a
	// statement that produced more than one WAL frame waits for all of them.
	next *syncToken
}

func (t *syncToken) wait() error {
	if t == nil {
		return nil
	}
	err := t.err
	if t.g != nil {
		if t.w != nil {
			t.w.flushFor(t.g)
		}
		<-t.g.done
		err = t.g.err
	}
	if nerr := t.next.wait(); err == nil {
		err = nerr
	}
	return err
}

// joinTokens combines two durability claims into one token whose wait
// covers both. Either side may be nil.
func joinTokens(a, b *syncToken) *syncToken {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	t := a
	for t.next != nil {
		t = t.next
	}
	t.next = b
	return a
}

// wal is the append-only redo log. Appends happen under mu (cheap memory
// work); file writes and fsyncs happen under ioMu so group formation
// overlaps the previous group's fsync — that overlap is the whole point of
// group commit.
type wal struct {
	fs   vfs.FS
	dir  string
	mode SyncMode

	// onFail, when set, is notified once with the first I/O error — the
	// engine uses it to enter degraded mode the moment the WAL goes
	// fail-stop, instead of waiting for the next commit to trip over it. It
	// is called without any wal mutex held.
	onFail func(error)

	// mu guards pending, cur, lsn, seg/size bookkeeping, closed, failed,
	// and the counters.
	mu      sync.Mutex
	pending []byte
	cur     *flushGroup
	lsn     uint64
	seg     uint64
	size    int64
	closed  bool
	// failed is the first write/fsync error; once set the WAL is fail-stop.
	// A failed write may have left a torn frame mid-log, and recovery
	// truncates everything from the first torn frame on — so acknowledging
	// any later commit would be a silent durability lie.
	failed error

	// flushMu serializes whole flush cycles (grab pending → write → fsync)
	// with rotation. Without it, a checkpoint's rotate() could slip between
	// the flusher grabbing a batch and writing it, landing pre-checkpoint
	// frames in the post-checkpoint segment — which recovery would then
	// misread as a torn tail and truncate away, dropping acknowledged
	// commits. Committers never take it, so enqueueing still overlaps an
	// in-flight fsync.
	flushMu sync.Mutex

	// ioMu serializes writes, fsyncs, rotation, and close on f.
	ioMu sync.Mutex
	f    vfs.File

	flushC chan struct{}
	quit   chan struct{}
	done   chan struct{}

	// counters, under mu
	commits      int64
	records      int64
	fsyncs       int64
	groupFlushes int64
	bytes        int64
	checkpoints  int64
	// pendingCommits counts the commits enqueued in the current group; a
	// flush grabs and resets it with the buffer, feeding the group-commit
	// batch-size histogram.
	pendingCommits int64

	// metrics, when set (engine-owned WALs), receives append/fsync latency
	// and batch-size observations. Recording happens outside ioMu — the
	// sqlvet lockorder analyzer forbids stats calls inside the I/O critical
	// section.
	metrics *engineMetrics
}

func segPath(dir string, seg uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seg))
}

func snapPath(dir string, seg uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", seg))
}

// listNumbered returns the sorted sequence numbers of files matching
// prefix-%08d.suffix in dir.
func listNumbered(fsys vfs.FS, dir, prefix, suffix string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, name := range entries {
		if !strings.HasPrefix(name, prefix+"-") || !strings.HasSuffix(name, suffix) {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix+"-"), suffix)
		var seg uint64
		if _, err := fmt.Sscanf(mid, "%d", &seg); err != nil {
			continue
		}
		out = append(out, seg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// newWAL opens (or creates) segment seg for appending. Recovery has already
// truncated any torn tail, so O_APPEND continues exactly after the last
// valid frame.
func newWAL(fsys vfs.FS, dir string, mode SyncMode, seg, lsn uint64, onFail func(error)) (*wal, error) {
	f, err := fsys.OpenFile(segPath(dir, seg), vfs.O_CREATE|vfs.O_WRONLY|vfs.O_APPEND)
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &wal{
		fs:     fsys,
		dir:    dir,
		mode:   mode,
		onFail: onFail,
		lsn:    lsn,
		seg:    seg,
		size:   size,
		f:      f,
	}
	w.cur = &flushGroup{done: make(chan struct{})}
	if mode == SyncBatch {
		w.flushC = make(chan struct{}, 1)
		w.quit = make(chan struct{})
		w.done = make(chan struct{})
		go w.flusher()
	}
	return w, nil
}

var errWALClosed = errors.New("wal: closed")

// commit appends one transaction's records as a frame and returns the token
// the committer must wait on before acknowledging. The frame only joins the
// in-memory group here — commit never touches the file, so it is safe (and
// cheap) to call while holding engine locks; the I/O happens when someone
// waits on the token. In batch mode the background flusher owns the file;
// otherwise the first waiter flushes the group itself. After close (a caller
// that loaded the wal pointer just before Close swapped it out) the token
// resolves immediately with an error instead of hanging on a flusher that
// has exited.
func (w *wal) commit(recs [][]byte) *syncToken {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return &syncToken{err: errWALClosed}
	}
	if w.failed != nil {
		err := fmt.Errorf("wal: refusing commit after earlier I/O error: %w", w.failed)
		w.mu.Unlock()
		return &syncToken{err: err}
	}
	w.lsn++
	frame := encodeFrame(w.lsn, recs)
	w.commits++
	w.pendingCommits++
	w.records += int64(len(recs))
	w.pending = append(w.pending, frame...)
	g := w.cur
	w.mu.Unlock()
	if w.mode == SyncBatch {
		select {
		case w.flushC <- struct{}{}:
		default: // a wakeup is already queued; the flusher will see our bytes
		}
		return &syncToken{g: g}
	}
	return &syncToken{w: w, g: g}
}

// flushFor drives group g to disk if no one has yet. Concurrent waiters on
// the same group serialize on flushMu; whoever gets it first flushes for
// everyone, and the rest see done already closed. This gives always-mode
// commits group durability for free: committers that enqueue while another
// waiter's fsync is in flight share the next flush.
func (w *wal) flushFor(g *flushGroup) {
	select {
	case <-g.done:
		return
	default:
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	select {
	case <-g.done:
		return
	default:
	}
	w.flushPendingLocked(false)
}

func (w *wal) flusher() {
	defer close(w.done)
	for {
		select {
		case <-w.flushC:
			w.flushBatch()
		case <-w.quit:
			w.flushBatch()
			return
		}
	}
}

// flushBatch writes and fsyncs the current group, then opens the next one.
// Committers appending while the fsync is in flight land in the next group.
func (w *wal) flushBatch() {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.flushPendingLocked(true)
}

// flushPendingLocked is one flush cycle; the caller holds flushMu.
func (w *wal) flushPendingLocked(accumulate bool) {
	if accumulate {
		// Accumulation phase: yield while concurrent committers are still
		// joining the group, and flush once it stops growing (bounded). This
		// is what buys the ≥5x over fsync-per-commit even on one core, where
		// the fsync syscall doesn't overlap with committer execution.
		prev := -1
		for i := 0; i < 100; i++ {
			w.mu.Lock()
			n := len(w.pending)
			w.mu.Unlock()
			if n == prev {
				break
			}
			prev = n
			runtime.Gosched()
		}
	}
	w.mu.Lock()
	if len(w.pending) == 0 {
		w.mu.Unlock()
		return
	}
	buf := w.pending
	w.pending = nil
	nCommits := w.pendingCommits
	w.pendingCommits = 0
	g := w.cur
	w.cur = &flushGroup{done: make(chan struct{})}
	if w.failed != nil {
		// Frames enqueued before the I/O error must not be written after a
		// possibly-torn frame: recovery truncates from the tear, so these
		// commits cannot be honestly acknowledged. Fail the whole group.
		err := fmt.Errorf("wal: refusing flush after earlier I/O error: %w", w.failed)
		w.mu.Unlock()
		g.err = err
		close(g.done)
		return
	}
	w.mu.Unlock()

	var appendDur, fsyncDur time.Duration
	w.ioMu.Lock()
	start := time.Now()
	_, err := w.f.Write(buf)
	appendDur = time.Since(start)
	if err == nil && w.mode != SyncOff {
		start = time.Now()
		err = w.f.Sync()
		fsyncDur = time.Since(start)
	}
	w.ioMu.Unlock()
	// Observations happen after ioMu is released so metric recording can
	// never extend the I/O critical section (lockorder rule L4).
	if m := w.metrics; m != nil {
		m.walAppend.Observe(appendDur)
		if fsyncDur > 0 {
			m.walFsync.Observe(fsyncDur)
		}
		m.walBatch.ObserveValue(nCommits)
	}

	w.mu.Lock() //sqlvet:ignore lockbalance -- the error branch hands mu to failStop, which releases it
	w.size += int64(len(buf))
	w.bytes += int64(len(buf))
	w.groupFlushes++
	if err == nil {
		if w.mode != SyncOff {
			w.fsyncs++
		}
		w.mu.Unlock()
	} else {
		w.failStop(err)
	}

	g.err = err
	close(g.done)
}

// failStop records the WAL's first I/O error and notifies the engine. The
// caller holds mu; failStop releases it (onFail must run without wal locks —
// it takes engine state).
func (w *wal) failStop(err error) {
	first := w.failed == nil
	if first {
		w.failed = err
	}
	w.mu.Unlock()
	if first && w.onFail != nil {
		w.onFail(err)
	}
}

// rotate completes the current segment and starts a new one, returning the
// new segment number. The caller (checkpoint) holds the all-tables write
// lock, so no row commit can race the swap; flushMu is held for the whole
// rotation so an in-flight group flush finishes into the old segment first,
// and anything still pending is written out before the file swap.
func (w *wal) rotate() (uint64, error) {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.flushPendingLocked(false)
	w.mu.Lock()
	if werr := w.failed; werr != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: refusing rotation after earlier I/O error: %w", werr)
	}
	w.mu.Unlock()
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if w.mode != SyncOff {
		if err := w.f.Sync(); err != nil {
			// The retiring segment's tail may not be durable, and the snapshot
			// about to be written assumes it is — fail-stop rather than let a
			// checkpoint retire segments whose contents never reached disk.
			w.mu.Lock() //sqlvet:ignore lockbalance -- failStop releases mu
			w.failStop(err)
			return 0, err
		}
	}
	if err := w.f.Close(); err != nil {
		w.mu.Lock() //sqlvet:ignore lockbalance -- failStop releases mu
		w.failStop(err)
		return 0, err
	}
	w.mu.Lock()
	w.seg++
	seg := w.seg
	w.mu.Unlock()
	f, err := w.fs.OpenFile(segPath(w.dir, seg), vfs.O_CREATE|vfs.O_WRONLY|vfs.O_APPEND)
	if err != nil {
		// The old segment is closed and no new one exists: nothing can be
		// appended anymore, so the WAL is fail-stop from here.
		w.mu.Lock() //sqlvet:ignore lockbalance -- failStop releases mu
		w.failStop(err)
		return 0, err
	}
	w.f = f
	w.mu.Lock()
	w.size = 0
	w.mu.Unlock()
	return seg, nil
}

// retire deletes WAL segments and snapshots superseded by the snapshot that
// covers everything before segment keep.
func (w *wal) retire(keep uint64) {
	if segs, err := listNumbered(w.fs, w.dir, "wal", ".log"); err == nil {
		for _, s := range segs {
			if s < keep {
				_ = w.fs.Remove(segPath(w.dir, s))
			}
		}
	}
	if snaps, err := listNumbered(w.fs, w.dir, "snap", ".snap"); err == nil {
		for _, s := range snaps {
			if s < keep {
				_ = w.fs.Remove(snapPath(w.dir, s))
			}
		}
	}
}

// close refuses new commits, drains the flusher (batch mode), makes the
// tail durable, and closes the segment file.
func (w *wal) close() error {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	if w.mode == SyncBatch {
		close(w.quit)
		<-w.done
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	// Frames enqueued but not yet flushed (always/off mode tokens no one has
	// waited on yet) must still reach the file before it closes.
	w.flushPendingLocked(false)
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	var err error
	if w.mode == SyncOff {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// currentSize reports the active segment's size (checkpoint trigger).
func (w *wal) currentSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size + int64(len(w.pending))
}

func (w *wal) currentLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lsn
}
