package analyze

import (
	"strings"

	"repro/internal/verilog"
)

// widthOf computes a static bit width with full operator support — the
// superset of sema's deliberately conservative Design.StaticWidth.
// Constant bounds and counts fold with sema's folder (Design.ConstInt).
// The second return is false when the width is genuinely
// context-dependent (unsized literals, parameters, unknown names).
func (p *pass) widthOf(e verilog.Expr) (int, bool) {
	switch n := e.(type) {
	case *verilog.Ident:
		if sig := p.signal(n.Name); sig != nil {
			return sig.Width(), true
		}
	case *verilog.Number:
		if strings.IndexByte(n.Text, '\'') > 0 {
			// Only explicitly sized literals carry a width; unsized ones
			// stretch to context.
			if v, err := n.Value(); err == nil {
				return v.Width(), true
			}
		}
	case *verilog.Index:
		return 1, true
	case *verilog.Slice:
		return p.design.SliceWidth(n)
	case *verilog.Unary:
		switch n.Op {
		case "&", "|", "^", "~&", "~|", "~^", "^~", "!":
			return 1, true
		default: // ~ - +
			return p.widthOf(n.X)
		}
	case *verilog.Binary:
		switch n.Op {
		case "&&", "||", "==", "!=", "===", "!==", "<", "<=", ">", ">=":
			return 1, true
		case "<<", ">>", "<<<", ">>>":
			return p.widthOf(n.X)
		default: // arithmetic and bitwise take the wider operand
			xw, okX := p.widthOf(n.X)
			yw, okY := p.widthOf(n.Y)
			if okX && okY {
				if yw > xw {
					xw = yw
				}
				return xw, true
			}
		}
	case *verilog.Ternary:
		tw, okT := p.widthOf(n.Then)
		ew, okE := p.widthOf(n.Else)
		if okT && okE {
			if ew > tw {
				tw = ew
			}
			return tw, true
		}
	case *verilog.Concat:
		total := 0
		for _, el := range n.Elems {
			w, ok := p.widthOf(el)
			if !ok {
				return 0, false
			}
			total += w
		}
		return total, true
	case *verilog.Repl:
		cnt, okC := p.design.ConstInt(n.Count)
		w, okW := p.widthOf(n.Value)
		if okC && okW && cnt >= 0 {
			return cnt * w, true
		}
	case *verilog.Call:
		switch n.Name {
		case "$signed", "$unsigned":
			if len(n.Args) == 1 {
				return p.widthOf(n.Args[0])
			}
		}
	}
	return 0, false
}
