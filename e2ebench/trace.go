package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Layers a span's time is charged to. They follow the repository's module
// names; "bench" is the benchmark's own client loop and fixtures.
const (
	layerAgent   = "agent"
	layerLLM     = "llm"
	layerMCP     = "mcp"
	layerCore    = "core"
	layerSQLDB   = "sqldb"
	layerMLTools = "mltools"
	layerBench   = "bench"
)

var accountedLayers = []string{layerAgent, layerLLM, layerMCP, layerCore, layerSQLDB, layerMLTools, layerBench}

// epoch anchors span timestamps so they fit in an int64 of nanoseconds.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call at a layer boundary. Parent is the causing span
// when the caller knew it (through ctx); Conn spans have no context, so
// their parent is found later by time interval (see analyzeTrace).
type span struct {
	ID, Parent uint64
	Name       string
	Layer      string
	Start, End int64
	Rows       int64 // rows returned by a Conn.Exec
	Bytes      int64 // result bytes of a tool handler or MCP call
}

func (s *span) dur() int64 { return s.End - s.Start }

func (s *span) isConn() bool { return strings.HasPrefix(s.Name, "core.conn.") }

// traceBuf collects the spans of one trace: one episode, or one fleet_rw
// client task. Sibling proxy producers record concurrently, hence the lock.
type traceBuf struct {
	ID    uint64
	mu    sync.Mutex
	next  uint64
	spans []span
}

func (b *traceBuf) newID() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.next++
	return b.next
}

func (b *traceBuf) add(s span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// clientTrace is one client's tracing state: the trace of the task the
// client is running, or nil while the client runs untraced. Only the
// client's own goroutine sets it, between tasks; goroutines the task starts
// (parallel proxy producers) read it.
type clientTrace struct {
	cur *traceBuf
}

type parentKey struct{}

func parentFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(parentKey{}).(uint64)
	return id
}

func withParent(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

// begin opens a span in the client's current trace. It returns nil when the
// client is untraced, and every method of the result accepts nil.
func (c *clientTrace) begin(name, layer string, parent uint64) *openSpan {
	b := c.cur
	if b == nil {
		return nil
	}
	return &openSpan{buf: b, s: span{ID: b.newID(), Parent: parent, Name: name, Layer: layer, Start: now()}}
}

type openSpan struct {
	buf *traceBuf
	s   span
}

func (o *openSpan) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end(rows, bytes int64) {
	if o == nil {
		return
	}
	o.s.End = now()
	o.s.Rows, o.s.Bytes = rows, bytes
	o.buf.add(o.s)
}

// traceStats is what analyzeTrace derives from one trace.
type traceStats struct {
	rootDur    int64
	layerNs    map[string]float64 // exclusive wall time per layer inside the root span
	overlapNs  int64              // root time during which more than one leaf span ran
	ambiguous  int                // Conn spans inside more than one sibling handler
	self       map[uint64]int64   // self time per span ID
	connParent map[uint64][]uint64
}

// analyzeTrace attributes a trace's time to layers.
//
// Conn methods take no context, so a Conn span's parent is the innermost
// non-Conn span of the same trace whose interval contains it. When two
// sibling spans both contain it (parallel proxy producers sharing one
// session), the benchmark does not guess: the Conn span counts as a
// possible child of each and is reported as ambiguous.
//
// A span's self time is its duration minus the union of its children's
// intervals. The per-layer accounting sweeps the root span's interval: each
// instant is charged to the active spans that have no active child, split
// evenly when there are several, and those instants also count as overlap.
// The layer times therefore sum to the root span's duration exactly.
func analyzeTrace(spans []span, rootName string) traceStats {
	st := traceStats{layerNs: map[string]float64{}, self: map[uint64]int64{}, connParent: map[uint64][]uint64{}}
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	isAncestor := func(a, b uint64) bool { // a is a ctx ancestor of b
		for p := byID[b].Parent; p != 0; {
			if p == a {
				return true
			}
			ps, ok := byID[p]
			if !ok {
				return false
			}
			p = ps.Parent
		}
		return false
	}
	children := map[uint64][]uint64{}
	for i := range spans {
		s := &spans[i]
		if !s.isConn() {
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], s.ID)
			}
			continue
		}
		var cands []uint64
		for j := range spans {
			c := &spans[j]
			if c.isConn() || c.Start > s.Start || c.End < s.End {
				continue
			}
			cands = append(cands, c.ID)
		}
		var inner []uint64
		for _, a := range cands {
			innermost := true
			for _, b := range cands {
				if a != b && isAncestor(a, b) {
					innermost = false
					break
				}
			}
			if innermost {
				inner = append(inner, a)
			}
		}
		if len(inner) > 1 {
			st.ambiguous++
		}
		st.connParent[s.ID] = inner
		for _, p := range inner {
			children[p] = append(children[p], s.ID)
		}
	}
	for i := range spans {
		s := &spans[i]
		st.self[s.ID] = s.dur() - coveredNs(s, children[s.ID], byID)
	}

	var root *span
	for i := range spans {
		if spans[i].Name == rootName {
			root = &spans[i]
			break
		}
	}
	if root == nil {
		return st
	}
	st.rootDur = root.dur()
	var inRoot []*span
	var times []int64
	for i := range spans {
		s := &spans[i]
		if s.End <= root.Start || s.Start >= root.End {
			continue
		}
		inRoot = append(inRoot, s)
		times = append(times, max(s.Start, root.Start), min(s.End, root.End))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	active := make([]*span, 0, len(inRoot))
	for k := 0; k+1 < len(times); k++ {
		t0, t1 := times[k], times[k+1]
		if t1 == t0 {
			continue
		}
		active = active[:0]
		for _, s := range inRoot {
			if s.Start <= t0 && s.End >= t1 {
				active = append(active, s)
			}
		}
		var leaves []*span
		for _, s := range active {
			leaf := true
			for _, c := range children[s.ID] {
				cs := byID[c]
				if cs.Start <= t0 && cs.End >= t1 {
					leaf = false
					break
				}
			}
			if leaf {
				leaves = append(leaves, s)
			}
		}
		if len(leaves) == 0 {
			continue
		}
		share := float64(t1-t0) / float64(len(leaves))
		for _, s := range leaves {
			st.layerNs[s.Layer] += share
		}
		if len(leaves) > 1 {
			st.overlapNs += t1 - t0
		}
	}
	return st
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent *span, kids []uint64, byID map[uint64]*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := byID[k]
		iv = append(iv, [2]int64{max(c.Start, parent.Start), min(c.End, parent.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
		} else if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}

// maxWrittenSpans caps the trace file: the fleet workload records several
// hundred thousand spans per traced run, and every span is analyzed
// whether written or not.
const maxWrittenSpans = 200_000

// writeSpans writes the traces as tab-separated lines: trace, span, parent
// (Conn spans list every candidate parent, comma-separated), name, layer,
// start and end in ns, rows, bytes.
func writeSpans(path string, traces []*traceBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace\tspan\tparent\tname\tlayer\tstart_ns\tend_ns\trows\tbytes")
	written := 0
	for _, tb := range traces {
		if written+len(tb.spans) > maxWrittenSpans {
			break
		}
		connParent := analyzeTrace(tb.spans, "").connParent
		for _, s := range tb.spans {
			parent := fmt.Sprint(s.Parent)
			if ps, ok := connParent[s.ID]; ok {
				parts := make([]string, len(ps))
				for i, p := range ps {
					parts[i] = fmt.Sprint(p)
				}
				parent = strings.Join(parts, ",")
			}
			fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%s\t%d\t%d\t%d\t%d\n", tb.ID, s.ID, parent, s.Name, s.Layer, s.Start, s.End, s.Rows, s.Bytes)
		}
		written += len(tb.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
