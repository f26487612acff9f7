// Package conndeadline enforces the failover-critical I/O rule from the
// fault-tolerant fognet work (DESIGN.md §8): in the live-networking
// packages (fognet, faultnet, transport), every Read or Write on a
// net.Conn — every protocol.WriteMessage/ReadMessageInto call that
// drives one, and every ReadFromUDPAddrPort/WriteToUDPAddrPort on a
// datagram socket (transport.DatagramConn) — must be preceded, in the
// same function literal, by a matching
// SetReadDeadline/SetWriteDeadline/SetDeadline on the same connection
// expression. A conn without a deadline turns one stalled peer into a
// permanently wedged goroutine, which is exactly the churn §3.2 says the
// system must survive.
//
// Deliberately blocking reads (a supervised loop whose liveness is
// guaranteed by another mechanism, or a pass-through wrapper that
// mirrors its caller's deadlines) are documented at the call site with
// //lint:ignore conndeadline <why>.
package conndeadline

import (
	"go/ast"
	"go/token"
	"go/types"

	"cloudfog/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "conndeadline",
	Doc:  "net.Conn and datagram-socket I/O in fognet, faultnet, and transport needs a deadline set in the same function",
	Run:  run,
}

// livePkgs are the package names carrying real network I/O.
var livePkgs = map[string]bool{"fognet": true, "faultnet": true, "transport": true}

// ioKind distinguishes which deadline blesses an operation.
type ioKind int

const (
	readOp ioKind = iota
	writeOp
	bothOps
)

// wireFuncs maps the protocol helpers that perform conn I/O through an
// argument to the kind of deadline they need.
var wireFuncs = map[string]ioKind{
	"cloudfog/internal/protocol.ReadMessageInto": readOp,
	"cloudfog/internal/protocol.WriteMessage":    writeOp,
}

func run(pass *analysis.Pass) error {
	if !livePkgs[pass.Pkg.Name()] {
		return nil
	}
	netPkg := analysis.ImportedPkg(pass.Pkg, "net")
	if netPkg == nil {
		return nil // no net import anywhere: no conns to check
	}
	connObj := netPkg.Scope().Lookup("Conn")
	if connObj == nil {
		return nil
	}
	connIface, ok := connObj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	c := &checker{pass: pass, connIface: connIface}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					c.checkFunc(n.Body)
				}
			case *ast.FuncLit:
				c.checkFunc(n.Body)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass      *analysis.Pass
	connIface *types.Interface
}

// blessing is one deadline-setting call observed in a function.
type blessing struct {
	expr string // rendered connection expression
	kind ioKind
	pos  token.Pos
}

// checkFunc scans one function literal: deadline sets bless only I/O that
// follows them within the same literal (a deadline set by an enclosing
// function may be long cleared by the time a spawned closure runs).
func (c *checker) checkFunc(body *ast.BlockStmt) {
	var blessings []blessing
	var inspect func(n ast.Node) bool
	collect := func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		var kind ioKind
		switch sel.Sel.Name {
		case "SetReadDeadline":
			kind = readOp
		case "SetWriteDeadline":
			kind = writeOp
		case "SetDeadline":
			kind = bothOps
		default:
			return
		}
		if _, isMethod := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isMethod {
			return
		}
		blessings = append(blessings, blessing{expr: types.ExprString(sel.X), kind: kind, pos: call.Pos()})
	}
	inspect = func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			collect(call)
		}
		return true
	}
	ast.Inspect(body, inspect)

	blessed := func(expr string, kind ioKind, pos token.Pos) bool {
		for _, b := range blessings {
			if b.pos < pos && b.expr == expr && (b.kind == bothOps || b.kind == kind) {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Datagram socket I/O (transport.DatagramConn and everything that
		// satisfies it, *net.UDPConn included). The method names are
		// unambiguous, so no interface check is needed — anything exposing
		// them is a datagram socket.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "ReadFromUDPAddrPort" || sel.Sel.Name == "WriteToUDPAddrPort") {
			if _, isMethod := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); isMethod {
				kind, deadline := readOp, "SetReadDeadline"
				if sel.Sel.Name == "WriteToUDPAddrPort" {
					kind, deadline = writeOp, "SetWriteDeadline"
				}
				expr := types.ExprString(sel.X)
				if !blessed(expr, kind, call.Pos()) {
					c.pass.Reportf(call.Pos(),
						"%s.%s on a datagram socket without a preceding %s/SetDeadline in this function: a stalled peer wedges this goroutine; set a deadline or document the blocking call with //lint:ignore conndeadline <why>",
						expr, sel.Sel.Name, deadline)
				}
			}
			return true
		}
		// Direct conn.Read / conn.Write method calls.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Read" || sel.Sel.Name == "Write") {
			if _, isMethod := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); isMethod && c.isConn(sel.X) {
				kind, deadline := readOp, "SetReadDeadline"
				if sel.Sel.Name == "Write" {
					kind, deadline = writeOp, "SetWriteDeadline"
				}
				expr := types.ExprString(sel.X)
				if !blessed(expr, kind, call.Pos()) {
					c.pass.Reportf(call.Pos(),
						"%s.%s on a net.Conn without a preceding %s/SetDeadline in this function: a stalled peer wedges this goroutine; set a deadline or document the blocking call with //lint:ignore conndeadline <why>",
						expr, sel.Sel.Name, deadline)
				}
			}
			return true
		}
		// Protocol helpers reading/writing through a conn argument.
		if kind, ok := wireFuncs[analysis.FullName(c.pass.TypesInfo, call)]; ok {
			for _, arg := range call.Args {
				if !c.isConn(arg) {
					continue
				}
				expr := types.ExprString(arg)
				deadline := "SetReadDeadline"
				if kind == writeOp {
					deadline = "SetWriteDeadline"
				}
				if !blessed(expr, kind, call.Pos()) {
					c.pass.Reportf(call.Pos(),
						"%s drives conn %s without a preceding %s/SetDeadline in this function; set a deadline or document the blocking call with //lint:ignore conndeadline <why>",
						analysis.Callee(c.pass.TypesInfo, call).Name(), expr, deadline)
				}
				break
			}
		}
		return true
	})
}

// isConn reports whether e's static type implements net.Conn.
func (c *checker) isConn(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if types.Implements(t, c.connIface) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		if types.Implements(types.NewPointer(t), c.connIface) {
			return true
		}
	}
	return false
}
