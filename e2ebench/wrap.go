package main

import (
	"context"
	"strings"
	"time"

	"bridgescope/internal/agent"
	"bridgescope/internal/core"
	"bridgescope/internal/llm"
	"bridgescope/internal/mcp"
)

// The wrappers below time each layer from outside, through the public seams
// the system offers: agent.ToolClient, llm.Model, the mcp.Registry handlers
// and core.Conn. They change no argument or result.

// callSample is one top-level tool call as the agent (or fleet client) saw it.
type callSample struct {
	Tool   string
	SQL    string
	Ns     int64
	IsErr  bool
	Denial bool
	// ProtoErr holds a Go or protocol error, as opposed to a tool error
	// result the agent can react to.
	ProtoErr string
}

// timedClient wraps the agent's ToolClient. It always times calls (the
// tool-call latency metrics and the correctness checks need them) and, when
// the client is traced, records an mcp.call span whose ID it passes to the
// handler through ctx.
type timedClient struct {
	inner agent.ToolClient
	tr    *clientTrace
	calls []callSample // the current task's calls; reset by the task loop
}

func (c *timedClient) ListTools(ctx context.Context) ([]mcp.ToolInfo, error) {
	sp := c.tr.begin("mcp.list_tools", layerMCP, parentFrom(ctx))
	out, err := c.inner.ListTools(ctx)
	sp.end(0, 0)
	return out, err
}

func (c *timedClient) CallTool(ctx context.Context, name string, args map[string]any) (mcp.CallResult, error) {
	sp := c.tr.begin("mcp.call", layerMCP, parentFrom(ctx))
	if sp != nil {
		ctx = withParent(ctx, sp.id())
	}
	t0 := time.Now()
	res, err := c.inner.CallTool(ctx, name, args)
	ns := time.Since(t0).Nanoseconds()
	sp.end(0, int64(len(res.Text)+len(res.Data)))
	sql, _ := args["sql"].(string)
	s := callSample{Tool: name, SQL: sql, Ns: ns, IsErr: res.IsErr || err != nil, Denial: res.IsErr && isDenial(res.Text)}
	if err != nil {
		s.ProtoErr = err.Error()
	}
	c.calls = append(c.calls, s)
	return res, err
}

// isDenial recognizes the toolkit's own verification refusals (paper §2.3),
// which happen before the statement reaches the database.
func isDenial(text string) bool {
	return strings.Contains(text, "(verified before execution)") ||
		strings.Contains(text, "tool only accepts") ||
		strings.Contains(text, "blocked by the user security policy")
}

// timedModel wraps llm.Model with an llm.decide span.
type timedModel struct {
	llm.Model
	tr     *clientTrace
	parent uint64 // the episode span of the current task
}

func (m *timedModel) Decide(st *llm.State) (*llm.Decision, error) {
	sp := m.tr.begin("llm.decide", layerLLM, m.parent)
	d, err := m.Model.Decide(st)
	sp.end(0, 0)
	return d, err
}

// wrapHandlers replaces every tool handler in reg with one that records a
// core.tool.<name> span, parented through ctx, and passes its own span ID on
// so nested proxy calls are parented to it. Handlers whose tool is in
// mlTools are charged to the mltools layer. onResult, when set, sees every
// successful result (the correctness checks read the trainer's output).
func wrapHandlers(reg *mcp.Registry, tr *clientTrace, mlTools map[string]bool, onResult func(tool string, out any)) {
	for _, info := range reg.List() {
		tool, _ := reg.Get(info.Name)
		wrapped := *tool
		inner, name := tool.Handler, tool.Name
		layer := layerCore
		if mlTools[name] {
			layer = layerMLTools
		}
		wrapped.Handler = func(ctx context.Context, args map[string]any) (any, error) {
			sp := tr.begin("core.tool."+name, layer, parentFrom(ctx))
			if sp != nil {
				ctx = withParent(ctx, sp.id())
			}
			out, err := inner(ctx, args)
			sp.end(0, resultBytes(out))
			if err == nil && onResult != nil {
				onResult(name, out)
			}
			return out, err
		}
		reg.Register(&wrapped)
	}
}

// resultBytes sizes a handler result without encoding it: tabular and ML
// results are mcp.CallResult values whose Data is already JSON.
func resultBytes(out any) int64 {
	switch v := out.(type) {
	case mcp.CallResult:
		if len(v.Data) > 0 {
			return int64(len(v.Data))
		}
		return int64(len(v.Text))
	case string:
		return int64(len(v))
	}
	return 0
}

// tracedConn decorates a core.Conn with core.conn.<method> spans. It must
// stay transparent: the toolkit type-asserts the optional BeginIsolation
// and core.RetryNoter extensions, so the decorator forwards both (falling
// back exactly as the toolkit would when the inner Conn lacks them).
type tracedConn struct {
	core.Conn
	tr *clientTrace
}

func (c *tracedConn) Exec(sql string) (*core.Result, error) {
	sp := c.tr.begin("core.conn.Exec", layerSQLDB, 0)
	r, err := c.Conn.Exec(sql)
	var rows int64
	if r != nil {
		rows = int64(len(r.Rows))
	}
	sp.end(rows, 0)
	return r, err
}

func (c *tracedConn) Begin() error {
	sp := c.tr.begin("core.conn.Begin", layerSQLDB, 0)
	err := c.Conn.Begin()
	sp.end(0, 0)
	return err
}

func (c *tracedConn) Commit() error {
	sp := c.tr.begin("core.conn.Commit", layerSQLDB, 0)
	err := c.Conn.Commit()
	sp.end(0, 0)
	return err
}

func (c *tracedConn) Rollback() error {
	sp := c.tr.begin("core.conn.Rollback", layerSQLDB, 0)
	err := c.Conn.Rollback()
	sp.end(0, 0)
	return err
}

func (c *tracedConn) BeginIsolation(level string) error {
	sp := c.tr.begin("core.conn.BeginIsolation", layerSQLDB, 0)
	defer sp.end(0, 0)
	if bi, ok := c.Conn.(interface{ BeginIsolation(string) error }); ok {
		return bi.BeginIsolation(level)
	}
	_, err := c.Conn.Exec("BEGIN ISOLATION LEVEL " + level)
	return err
}

func (c *tracedConn) NoteRetry() {
	if n, ok := c.Conn.(core.RetryNoter); ok {
		n.NoteRetry()
	}
}

func (c *tracedConn) ClassifySQL(sql string) (string, []string, error) {
	sp := c.tr.begin("core.conn.ClassifySQL", layerCore, 0)
	verb, tables, err := c.Conn.ClassifySQL(sql)
	sp.end(0, 0)
	return verb, tables, err
}

func (c *tracedConn) HasPrivilege(action, object string) bool {
	sp := c.tr.begin("core.conn.HasPrivilege", layerCore, 0)
	ok := c.Conn.HasPrivilege(action, object)
	sp.end(0, 0)
	return ok
}

func (c *tracedConn) ListObjects() []core.ObjectInfo {
	sp := c.tr.begin("core.conn.ListObjects", layerCore, 0)
	out := c.Conn.ListObjects()
	sp.end(0, 0)
	return out
}

func (c *tracedConn) ObjectDDL(name string) (string, error) {
	sp := c.tr.begin("core.conn.ObjectDDL", layerCore, 0)
	out, err := c.Conn.ObjectDDL(name)
	sp.end(0, 0)
	return out, err
}

func (c *tracedConn) Columns(name string) ([]string, error) {
	sp := c.tr.begin("core.conn.Columns", layerCore, 0)
	out, err := c.Conn.Columns(name)
	sp.end(0, 0)
	return out, err
}

func (c *tracedConn) ColumnValues(table, column string, limit int) ([]string, error) {
	sp := c.tr.begin("core.conn.ColumnValues", layerCore, 0)
	out, err := c.Conn.ColumnValues(table, column, limit)
	sp.end(0, 0)
	return out, err
}

func (c *tracedConn) ObjectActions(object string) []string {
	sp := c.tr.begin("core.conn.ObjectActions", layerCore, 0)
	out := c.Conn.ObjectActions(object)
	sp.end(0, 0)
	return out
}

func (c *tracedConn) Explain(sql string) (string, error) {
	sp := c.tr.begin("core.conn.Explain", layerSQLDB, 0)
	out, err := c.Conn.Explain(sql)
	sp.end(0, 0)
	return out, err
}
