package bsql

import "beliefdb/internal/sqlparser"

// SelectAST returns the translated AST of a SELECT, the statement ExecStmt
// hands the executor.
func (tr *Translator) SelectAST(sel Select) (sqlparser.Select, error) {
	return tr.translate(tr.st.Pin(), sel)
}
