// Package sqldb implements an embedded relational database engine: a SQL
// lexer/parser, an expression evaluator, an executor with joins and
// aggregates, MVCC transactions with snapshot isolation (row-version
// chains, first-committer-wins write-conflict detection, undo-log
// atomicity), PK/FK/NOT NULL constraints, hash indexes, and a
// PostgreSQL-style privilege system.
//
// It is the database substrate for the BridgeScope reproduction. The toolkit
// layers (internal/core, internal/pgmcp) only touch it through the
// database-agnostic adapter in internal/core, mirroring the paper's §2.6
// claim that all tools are built on a unified set of database interfaces.
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported value kinds. KindNull is the SQL NULL marker.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// NewInt wraps an int64 as a Value.
func NewInt(i int64) Value { return Value{Kind: KindInt, I: i} }

// NewFloat wraps a float64 as a Value.
func NewFloat(f float64) Value { return Value{Kind: KindFloat, F: f} }

// NewText wraps a string as a Value.
func NewText(s string) Value { return Value{Kind: KindText, S: s} }

// NewBool wraps a bool as a Value.
func NewBool(b bool) Value { return Value{Kind: KindBool, B: b} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	}
	return 0, false
}

// Truthy reports whether v counts as true in a WHERE clause. NULL is false.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindBool:
		return v.B
	case KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	default:
		return false
	}
}

// String renders the value for result sets and error messages.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindText:
		return v.S
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	}
	return "?"
}

// SQLLiteral renders the value as a literal that the parser accepts back.
func (v Value) SQLLiteral() string {
	switch v.Kind {
	case KindText:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	default:
		return v.String()
	}
}

// Compare orders two non-NULL values. Numeric kinds compare numerically
// across int/float; text lexicographically; bool false < true. Comparing
// incompatible kinds is an error. Two ints compare in int64 space —
// routing them through float64 would collapse values above 2^53 (e.g.
// 9007199254740993 == 9007199254740992 as float64) and disagree with the
// exact keys the PK map and indexes store.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		return 0, fmt.Errorf("cannot compare NULL values")
	}
	if a.Kind == KindInt && b.Kind == KindInt {
		switch {
		case a.I < b.I:
			return -1, nil
		case a.I > b.I:
			return 1, nil
		}
		return 0, nil
	}
	af, aNum := a.AsFloat()
	bf, bNum := b.AsFloat()
	switch {
	case aNum && bNum:
		if af < bf {
			return -1, nil
		}
		if af > bf {
			return 1, nil
		}
		return 0, nil
	case a.Kind == KindText && b.Kind == KindText:
		return strings.Compare(a.S, b.S), nil
	case a.Kind == KindBool && b.Kind == KindBool:
		switch {
		case a.B == b.B:
			return 0, nil
		case !a.B:
			return -1, nil
		default:
			return 1, nil
		}
	}
	return 0, fmt.Errorf("cannot compare %s with %s", a.Kind, b.Kind)
}

// orderCompare is the total order ordered indexes sort by. It agrees with
// Compare wherever Compare is defined (same column after coercion: numeric
// with numeric, text with text, bool with bool) and falls back to ranking by
// kind for value pairs Compare rejects, so sorted index slices always have a
// consistent order even if a caller mixes kinds. NULLs order first, though
// ordered structures exclude them (they live in the hash bucket only).
func orderCompare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if c, err := Compare(a, b); err == nil {
		return c
	}
	switch {
	case a.Kind < b.Kind:
		return -1
	case a.Kind > b.Kind:
		return 1
	}
	return 0
}

// Equal reports whether two values are equal under Compare semantics.
// Two NULLs are considered equal here (used for grouping and index keys,
// matching SQL's IS NOT DISTINCT FROM), unlike the = operator which yields
// NULL.
func Equal(a, b Value) bool {
	if a.IsNull() && b.IsNull() {
		return true
	}
	if a.IsNull() || b.IsNull() {
		return false
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Key returns a canonical string key for hashing a value in indexes and
// GROUP BY maps. Numeric values that are integral share one key across
// int/float so that index lookups match Compare semantics.
func (v Value) Key() string {
	var buf [32]byte
	return string(v.appendKey(buf[:0]))
}

// appendKey appends v's canonical key (see Key) to b.
func (v Value) appendKey(b []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, "\x00N"...)
	case KindInt:
		return strconv.AppendInt(append(b, '\x01'), v.I, 10)
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			return strconv.AppendInt(append(b, '\x01'), int64(v.F), 10)
		}
		return strconv.AppendFloat(append(b, '\x02'), v.F, 'g', -1, 64)
	case KindText:
		return append(append(b, '\x03'), v.S...)
	case KindBool:
		if v.B {
			return append(b, "\x04t"...)
		}
		return append(b, "\x04f"...)
	}
	return append(b, "\x05?"...)
}

// appendKeySegment appends v's canonical key to b, length-prefixed.
// Composite hash keys (multi-column PKs, GROUP BY, DISTINCT) concatenate
// segments; a bare separator would let payloads containing it collide
// across segment boundaries — ("a", "b|c") vs ("a|b", "c") — so every
// segment carries its own length instead.
func appendKeySegment(b []byte, v Value) []byte {
	var buf [32]byte
	k := v.appendKey(buf[:0])
	b = strconv.AppendInt(b, int64(len(k)), 10)
	b = append(b, ':')
	return append(b, k...)
}

// writeKeySegment writes appendKeySegment's bytes to a builder.
func writeKeySegment(b *strings.Builder, v Value) {
	var buf [48]byte
	b.Write(appendKeySegment(buf[:0], v))
}

// CoerceTo converts v to the column type t where a lossless conversion
// exists (int→float, numeric text forms are NOT auto-converted). NULL passes
// through any type.
func CoerceTo(v Value, t Kind) (Value, error) {
	if v.IsNull() || v.Kind == t {
		return v, nil
	}
	switch {
	case t == KindFloat && v.Kind == KindInt:
		return NewFloat(float64(v.I)), nil
	case t == KindInt && v.Kind == KindFloat && v.F == float64(int64(v.F)):
		return NewInt(int64(v.F)), nil
	case t == KindText:
		return NewText(v.String()), nil
	}
	return Value{}, fmt.Errorf("cannot store %s value %s in %s column", v.Kind, v, t)
}
