package verilog

import (
	"fmt"
	"strings"
)

// This is the package's one printer: it turns an AST back into
// parseable source. Two tools depend on the round-trip. `vlint -print`
// prints the parsed (or best-effort) AST of a file, and the fuzz
// minimizer mutates a cloned AST, prints it, and re-runs the full
// frontend. So the output must stay inside the grammar the parser
// accepts: Format(Parse(Format(f))) is Format(f), and a clean parse
// prints to source that parses cleanly (TestFormatRoundTrip,
// FuzzFormatRoundTrip). Formatting is canonical (tabs, one statement
// per line, every sub-expression parenthesized), not source-preserving.

// Format prints a whole source file.
func Format(f *SourceFile) string {
	var b strings.Builder
	for _, d := range f.Directives {
		b.WriteString("`")
		b.WriteString(d.Name)
		b.WriteString("\n")
	}
	for i, m := range f.Modules {
		if i > 0 {
			b.WriteString("\n")
		}
		FormatModule(&b, m)
	}
	return b.String()
}

// FormatModule prints one module.
func FormatModule(b *strings.Builder, m *Module) {
	b.WriteString("module ")
	b.WriteString(m.Name)
	b.WriteString("(")
	for i, p := range m.Ports {
		if i > 0 {
			b.WriteString(", ")
		}
		writePortDecl(b, p)
	}
	b.WriteString(");\n")
	for _, item := range m.Items {
		writeItem(b, item)
	}
	b.WriteString("endmodule\n")
}

func writePortDecl(b *strings.Builder, p *PortDecl) {
	if p.Dir == DirNone {
		// Non-ANSI header: name only, body items carry the rest.
		b.WriteString(p.Name)
		return
	}
	b.WriteString(p.Dir.String())
	if p.Kind != KindNone {
		b.WriteString(" ")
		b.WriteString(p.Kind.String())
	}
	if p.Signed {
		b.WriteString(" signed")
	}
	writeRange(b, p.VRange)
	b.WriteString(" ")
	b.WriteString(p.Name)
}

func writeRange(b *strings.Builder, r *Range) {
	if r == nil {
		return
	}
	b.WriteString(" [")
	b.WriteString(FormatExpr(r.MSB))
	b.WriteString(":")
	b.WriteString(FormatExpr(r.LSB))
	b.WriteString("]")
}

func writeItem(b *strings.Builder, item Item) {
	switch it := item.(type) {
	case *Decl:
		b.WriteString("\t")
		writeDecl(b, it)
		b.WriteString(";\n")
	case *PortItem:
		b.WriteString("\t")
		writePortDecl(b, &it.PortDecl)
		b.WriteString(";\n")
	case *ParamDecl:
		b.WriteString("\t")
		if it.Local {
			b.WriteString("localparam")
		} else {
			b.WriteString("parameter")
		}
		writeRange(b, it.VRange)
		for i, n := range it.Names {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(" ")
			b.WriteString(n.Name)
			if n.Init != nil {
				b.WriteString(" = ")
				b.WriteString(FormatExpr(n.Init))
			}
		}
		b.WriteString(";\n")
	case *AssignItem:
		b.WriteString("\tassign ")
		b.WriteString(FormatExpr(it.LHS))
		b.WriteString(" = ")
		b.WriteString(FormatExpr(it.RHS))
		b.WriteString(";\n")
	case *AlwaysBlock:
		b.WriteString("\talways @(")
		if it.Star {
			b.WriteString("*")
		} else {
			for i, ev := range it.Events {
				if i > 0 {
					b.WriteString(" or ")
				}
				if ev.Edge != EdgeNone {
					b.WriteString(ev.Edge.String())
					b.WriteString(" ")
				}
				b.WriteString(FormatExpr(ev.Signal))
			}
		}
		b.WriteString(")\n")
		writeStmt(b, it.Body, 2)
	case *InitialBlock:
		b.WriteString("\tinitial\n")
		writeStmt(b, it.Body, 2)
	default:
		b.WriteString(fmt.Sprintf("\t// unprintable item %T\n", item))
	}
}

func writeDecl(b *strings.Builder, d *Decl) {
	b.WriteString(d.Kind.String())
	if d.Signed {
		b.WriteString(" signed")
	}
	writeRange(b, d.VRange)
	for i, n := range d.Names {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(" ")
		b.WriteString(n.Name)
		if n.Init != nil {
			b.WriteString(" = ")
			b.WriteString(FormatExpr(n.Init))
		}
	}
}

func writeStmt(b *strings.Builder, s Stmt, depth int) {
	ind := strings.Repeat("\t", depth)
	switch st := s.(type) {
	case nil:
		b.WriteString(ind)
		b.WriteString(";\n")
	case *BlockStmt:
		b.WriteString(ind)
		b.WriteString("begin")
		if st.Label != "" {
			b.WriteString(" : ")
			b.WriteString(st.Label)
		}
		b.WriteString("\n")
		for _, d := range st.Decls {
			b.WriteString(ind)
			b.WriteString("\t")
			writeDecl(b, d)
			b.WriteString(";\n")
		}
		for _, sub := range st.Stmts {
			writeStmt(b, sub, depth+1)
		}
		b.WriteString(ind)
		b.WriteString("end\n")
	case *AssignStmt:
		b.WriteString(ind)
		writeAssign(b, st)
		b.WriteString(";\n")
	case *IfStmt:
		b.WriteString(ind)
		b.WriteString("if (")
		b.WriteString(FormatExpr(st.Cond))
		b.WriteString(")\n")
		writeStmt(b, st.Then, depth+1)
		if st.Else != nil {
			b.WriteString(ind)
			b.WriteString("else\n")
			writeStmt(b, st.Else, depth+1)
		}
	case *CaseStmt:
		b.WriteString(ind)
		b.WriteString(st.Kind.String())
		b.WriteString(" (")
		b.WriteString(FormatExpr(st.Subject))
		b.WriteString(")\n")
		for _, item := range st.Items {
			b.WriteString(ind)
			b.WriteString("\t")
			if item.Labels == nil {
				b.WriteString("default")
			} else {
				for i, l := range item.Labels {
					if i > 0 {
						b.WriteString(", ")
					}
					b.WriteString(FormatExpr(l))
				}
			}
			b.WriteString(":\n")
			writeStmt(b, item.Body, depth+2)
		}
		b.WriteString(ind)
		b.WriteString("endcase\n")
	case *ForStmt:
		b.WriteString(ind)
		b.WriteString("for (")
		if st.LoopVar != "" {
			b.WriteString("int ")
		}
		if st.Init != nil {
			writeAssign(b, st.Init)
		}
		b.WriteString("; ")
		b.WriteString(FormatExpr(st.Cond))
		b.WriteString("; ")
		if st.Step != nil {
			writeAssign(b, st.Step)
		}
		b.WriteString(")\n")
		writeStmt(b, st.Body, depth+1)
	case *NullStmt:
		b.WriteString(ind)
		b.WriteString(";\n")
	default:
		b.WriteString(ind)
		b.WriteString(fmt.Sprintf("// unprintable stmt %T\n", s))
	}
}

func writeAssign(b *strings.Builder, a *AssignStmt) {
	b.WriteString(FormatExpr(a.LHS))
	if a.Blocking {
		b.WriteString(" = ")
	} else {
		b.WriteString(" <= ")
	}
	b.WriteString(FormatExpr(a.RHS))
}

// FormatExpr prints one expression. Sub-expressions are parenthesized
// unconditionally, which keeps the printer precedence-free and the
// output unambiguous.
func FormatExpr(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Ident:
		return x.Name
	case *Number:
		return x.Text
	case *Unary:
		return x.Op + "(" + FormatExpr(x.X) + ")"
	case *Binary:
		return "(" + FormatExpr(x.X) + " " + x.Op + " " + FormatExpr(x.Y) + ")"
	case *Ternary:
		return "(" + FormatExpr(x.Cond) + " ? " + FormatExpr(x.Then) + " : " + FormatExpr(x.Else) + ")"
	case *Concat:
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			parts[i] = FormatExpr(el)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *Repl:
		return "{" + FormatExpr(x.Count) + "{" + FormatExpr(x.Value) + "}}"
	case *Index:
		return FormatExpr(x.X) + "[" + FormatExpr(x.Idx) + "]"
	case *Slice:
		switch x.Kind {
		case SelectPlus:
			return FormatExpr(x.X) + "[" + FormatExpr(x.Hi) + " +: " + FormatExpr(x.Lo) + "]"
		case SelectMinus:
			return FormatExpr(x.X) + "[" + FormatExpr(x.Hi) + " -: " + FormatExpr(x.Lo) + "]"
		}
		return FormatExpr(x.X) + "[" + FormatExpr(x.Hi) + ":" + FormatExpr(x.Lo) + "]"
	case *Call:
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = FormatExpr(a)
		}
		return x.Name + "(" + strings.Join(parts, ", ") + ")"
	}
	return fmt.Sprintf("/* unprintable expr %T */", e)
}
