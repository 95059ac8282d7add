package main

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"bridgescope/internal/core"
	"bridgescope/internal/mcp"
	"bridgescope/internal/mltools"
	"bridgescope/internal/sqldb"
)

func wrapFixture(t *testing.T) *sqldb.Engine {
	t.Helper()
	e := sqldb.NewEngine("wrap")
	s := e.NewSession("root")
	for _, q := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, x INT, name TEXT)",
		"INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c')",
		"CREATE TABLE secret (id INT PRIMARY KEY)",
	} {
		s.MustExec(q)
	}
	g := e.Grants()
	for _, a := range []sqldb.Action{sqldb.ActionSelect, sqldb.ActionInsert, sqldb.ActionUpdate, sqldb.ActionDelete} {
		g.Grant("u", a, "t")
	}
	return e
}

type step struct {
	tool string
	args map[string]any
	// between runs on a second session after the call, to make isolation
	// levels observable.
	between string
}

// wrapScript covers every tool family, a denial, the begin isolation
// argument (READ COMMITTED must see a concurrent commit, SNAPSHOT must not)
// and a nested proxy unit with parallel producers.
var wrapScript = []step{
	{tool: "get_schema"},
	{tool: "get_object", args: map[string]any{"object": "t"}},
	{tool: "get_value", args: map[string]any{"table": "t", "column": "name", "key": "a"}},
	{tool: "select", args: map[string]any{"sql": "SELECT id, x FROM t ORDER BY id"}},
	{tool: "select", args: map[string]any{"sql": "SELECT * FROM secret"}},
	{tool: "select", args: map[string]any{"sql": "DELETE FROM t"}},
	{tool: "insert", args: map[string]any{"sql": "INSERT INTO t VALUES (4, 40, 'd')"}},
	{tool: "begin", args: map[string]any{"isolation": "READ COMMITTED"}},
	{tool: "select", args: map[string]any{"sql": "SELECT x FROM t WHERE id = 1"}, between: "UPDATE t SET x = x + 1 WHERE id = 1"},
	{tool: "select", args: map[string]any{"sql": "SELECT x FROM t WHERE id = 1"}},
	{tool: "commit"},
	{tool: "begin", args: map[string]any{"isolation": "SNAPSHOT"}},
	{tool: "select", args: map[string]any{"sql": "SELECT x FROM t WHERE id = 2"}, between: "UPDATE t SET x = x + 1 WHERE id = 2"},
	{tool: "select", args: map[string]any{"sql": "SELECT x FROM t WHERE id = 2"}},
	{tool: "update", args: map[string]any{"sql": "UPDATE t SET x = 0 WHERE id = 2"}},
	{tool: "rollback"},
	{tool: "begin", args: map[string]any{"isolation": "bogus"}},
	{tool: "delete", args: map[string]any{"sql": "DELETE FROM t WHERE id = 4"}},
	{tool: "proxy", args: map[string]any{
		"target_tool": "zscore_normalize",
		"tool_args": map[string]any{"features": map[string]any{
			"__tool__": "select", "__args__": map[string]any{"sql": "SELECT id, x FROM t ORDER BY id"}, "__transform__": "matrix:id,x",
		}},
	}},
	{tool: "proxy", args: map[string]any{
		"target_tool": "evaluate_regression",
		"tool_args": map[string]any{
			"predictions": map[string]any{"__tool__": "select", "__args__": map[string]any{"sql": "SELECT x FROM t ORDER BY id"}, "__transform__": "vector:x"},
			"truth":       map[string]any{"__tool__": "select", "__args__": map[string]any{"sql": "SELECT id FROM t ORDER BY id"}, "__transform__": "vector:id"},
		},
	}},
}

// runScript drives wrapScript through a toolkit on a fresh fixture and
// returns the tool list and every result.
func runScript(t *testing.T, wrapped bool) ([]mcp.ToolInfo, []mcp.CallResult, *traceBuf) {
	t.Helper()
	e := wrapFixture(t)
	var tr clientTrace
	var conn core.Conn = core.NewSQLDBConn(e, "u")
	if wrapped {
		conn = &tracedConn{Conn: conn, tr: &tr}
		tr.cur = newTraceBuf()
	}
	tk := core.New(conn, core.Policy{})
	mltools.NewServer(1).RegisterTools(tk.Registry())
	var client interface {
		ListTools(context.Context) ([]mcp.ToolInfo, error)
		CallTool(context.Context, string, map[string]any) (mcp.CallResult, error)
	} = tk.Client()
	if wrapped {
		wrapHandlers(tk.Registry(), &tr, mlToolNames(), nil)
		client = &timedClient{inner: tk.Client(), tr: &tr}
	}
	ctx := context.Background()
	tools, err := client.ListTools(ctx)
	if err != nil {
		t.Fatal(err)
	}
	other := e.NewSession("root")
	var results []mcp.CallResult
	for _, s := range wrapScript {
		res, err := client.CallTool(ctx, s.tool, s.args)
		if err != nil {
			t.Fatalf("%s: %v", s.tool, err)
		}
		results = append(results, res)
		if s.between != "" {
			other.MustExec(s.between)
		}
	}
	return tools, results, tr.cur
}

func TestWrappersAreTransparent(t *testing.T) {
	plainTools, plain, _ := runScript(t, false)
	wrappedTools, wrapped, buf := runScript(t, true)
	if !reflect.DeepEqual(plainTools, wrappedTools) {
		t.Fatalf("tool lists differ:\nplain   %v\nwrapped %v", plainTools, wrappedTools)
	}
	for i := range plain {
		if !reflect.DeepEqual(plain[i], wrapped[i]) {
			t.Errorf("step %d (%s): plain %+v, wrapped %+v", i, wrapScript[i].tool, plain[i], wrapped[i])
		}
	}
	// The script must exercise what it claims to: READ COMMITTED sees the
	// concurrent update, SNAPSHOT does not, and the bad level is refused.
	if plain[8].Text == plain[9].Text {
		t.Errorf("READ COMMITTED did not see a concurrent commit: %q", plain[9].Text)
	}
	if plain[12].Text != plain[13].Text {
		t.Errorf("SNAPSHOT saw a concurrent commit: %q then %q", plain[12].Text, plain[13].Text)
	}
	if !plain[16].IsErr || !plain[4].IsErr || !plain[5].IsErr || plain[18].IsErr || plain[19].IsErr {
		t.Errorf("script outcomes changed: %+v", plain)
	}

	names := map[string]int{}
	for _, s := range buf.spans {
		names[s.Name]++
	}
	for _, want := range []string{"mcp.call", "core.tool.proxy", "core.tool.zscore_normalize", "core.conn.BeginIsolation", "core.conn.Exec", "core.conn.ClassifySQL", "core.conn.HasPrivilege"} {
		if names[want] == 0 {
			t.Errorf("no %s span recorded (have %v)", want, names)
		}
	}
	// Nested producers are parented to the proxy handler through ctx.
	byID := map[uint64]span{}
	for _, s := range buf.spans {
		byID[s.ID] = s
	}
	nested := 0
	for _, s := range buf.spans {
		if s.Name == "core.tool.select" && byID[s.Parent].Name == "core.tool.proxy" {
			nested++
		}
	}
	if nested != 3 {
		t.Errorf("%d select producers parented to a proxy span, want 3", nested)
	}
}

// TestConnForwardsOptionalInterfaces pins the two extensions the toolkit
// and core.RunInTransaction type-assert.
func TestConnForwardsOptionalInterfaces(t *testing.T) {
	e := wrapFixture(t)
	var conn core.Conn = &tracedConn{Conn: core.NewSQLDBConn(e, "u"), tr: &clientTrace{}}
	if _, ok := conn.(interface{ BeginIsolation(string) error }); !ok {
		t.Fatal("decorator hides BeginIsolation")
	}
	if _, ok := conn.(core.RetryNoter); !ok {
		t.Fatal("decorator hides core.RetryNoter")
	}
	// A retry inside RunInTransaction must reach the engine's counter
	// through the decorator.
	before := e.Stats().MVCC.Retries
	attempts := 0
	err := core.RunInTransactionBackoff(conn, 3, core.RetryBackoff{Sleep: func(time.Duration) {}}, func(c core.Conn) error {
		attempts++
		if attempts == 1 {
			return fmt.Errorf("simulated conflict: %w", sqldb.ErrWriteConflict)
		}
		_, err := c.Exec("UPDATE t SET x = x + 1 WHERE id = 3")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().MVCC.Retries - before; got != 1 {
		t.Errorf("engine counted %d retries through the decorator, want 1", got)
	}
}

func TestSpanAttribution(t *testing.T) {
	// Two sibling handlers under one proxy overlap; a Conn span inside both
	// is ambiguous and charged to neither alone.
	spans := []span{
		{ID: 1, Name: "episode", Layer: layerAgent, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mcp.call", Layer: layerMCP, Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "core.tool.proxy", Layer: layerCore, Start: 12, End: 88},
		{ID: 4, Parent: 3, Name: "core.tool.select", Layer: layerCore, Start: 20, End: 60},
		{ID: 5, Parent: 3, Name: "core.tool.select", Layer: layerCore, Start: 22, End: 70},
		{ID: 6, Name: "core.conn.Exec", Layer: layerSQLDB, Start: 30, End: 40},
		{ID: 7, Name: "core.conn.Exec", Layer: layerSQLDB, Start: 62, End: 68},
	}
	st := analyzeTrace(spans, "episode")
	if st.ambiguous != 1 {
		t.Errorf("ambiguous = %d, want 1", st.ambiguous)
	}
	if got := st.connParent[7]; !reflect.DeepEqual(got, []uint64{5}) {
		t.Errorf("parent of the Exec inside one handler = %v, want [5]", got)
	}
	total := 0.0
	for _, ns := range st.layerNs {
		total += ns
	}
	if total != 100 {
		t.Errorf("layer times sum to %v, want the episode's 100", total)
	}
	if st.layerNs[layerSQLDB] != 16 {
		t.Errorf("sqldb time %v, want 16", st.layerNs[layerSQLDB])
	}
	if st.self[4] != 30 || st.self[5] != 32 {
		t.Errorf("handler self times %d and %d, want 30 and 32", st.self[4], st.self[5])
	}
}
