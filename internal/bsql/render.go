package bsql

import (
	"fmt"
	"strings"

	"beliefdb/internal/query"
	"beliefdb/internal/sqlparser"
	"beliefdb/internal/val"
)

// This file renders parsed BeliefSQL statements back to parseable text.
// The router (internal/router) uses it to rebuild per-shard scripts — an
// INSERT's VALUES rows split by owning shard, a rewritten scatter query
// with partial-aggregate items — from statement ASTs, so the renderings
// must round-trip through Parse. Expressions already render themselves
// (sqlparser's Expr.String produces parseable SQL, with string literals
// escaped); this adds the BeliefSQL-specific statement shapes.

// String renders a belief reference (FROM item or DML target) as
// parseable BeliefSQL: user names as escaped string literals, NOT for the
// negation. Error messages quote it too, so they show what could be typed.
func (br BeliefRef) String() string {
	var sb strings.Builder
	for _, e := range br.Path {
		sb.WriteString("BELIEF ")
		if e.IsRef {
			sb.WriteString(e.Ref.String())
		} else {
			sb.WriteString(val.Str(e.Literal).SQL())
		}
		sb.WriteByte(' ')
	}
	if br.Negated {
		sb.WriteString("NOT ")
	}
	sb.WriteString(br.Table)
	if br.Alias != "" {
		sb.WriteString(" AS " + br.Alias)
	}
	return sb.String()
}

// RenderSelect renders a SELECT back to parseable BeliefSQL.
func RenderSelect(sel Select) string {
	from := make([]string, len(sel.From))
	for i, ref := range sel.From {
		from[i] = ref.String()
	}
	return sqlparser.Select{
		Items: sel.Items, Where: sel.Where, GroupBy: sel.GroupBy, OrderBy: sel.OrderBy, Limit: sel.Limit,
	}.Render(from)
}

// Render renders any parsed BeliefSQL statement back to parseable text
// (without a trailing semicolon).
func Render(stmt Statement) string {
	switch s := stmt.(type) {
	case Select:
		return RenderSelect(s)
	case Explain:
		return "EXPLAIN " + RenderSelect(s.Query)
	case Insert:
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + s.Target.String() + " VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for j, e := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(e.String())
			}
			sb.WriteByte(')')
		}
		return sb.String()
	case Delete:
		out := "DELETE FROM " + s.Target.String()
		if s.Where != nil {
			out += " WHERE " + s.Where.String()
		}
		return out
	case Update:
		var sb strings.Builder
		sb.WriteString("UPDATE " + s.Target.String() + " SET ")
		for i, a := range s.Set {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.Column + " = " + a.Value.String())
		}
		if s.Where != nil {
			sb.WriteString(" WHERE " + s.Where.String())
		}
		return sb.String()
	default:
		// Statement is a closed interface; a new variant must be added here.
		panic(fmt.Sprintf("bsql: Render: unsupported statement %T", stmt))
	}
}

// Aggregated reports whether a SELECT is an aggregate query — it groups,
// or a select item contains an aggregate call. Aggregated queries translate
// without the implicit BCQ DISTINCT, and the scatter-gather merge combines
// their per-shard partial aggregates instead of concatenating rows.
func Aggregated(sel Select) bool {
	if len(sel.GroupBy) > 0 {
		return true
	}
	for _, it := range sel.Items {
		if it.Expr != nil && query.ContainsAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// IsAggCall reports whether e is a direct aggregate function call
// (COUNT/SUM/MIN/MAX/AVG), as opposed to merely containing one.
func IsAggCall(e sqlparser.Expr) bool {
	fc, ok := e.(sqlparser.FuncCall)
	if !ok {
		return false
	}
	switch strings.ToUpper(fc.Name) {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}
