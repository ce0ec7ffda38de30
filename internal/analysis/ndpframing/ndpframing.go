// Package ndpframing enforces batched D2H framing in device encoders.
//
// An offloaded SSDlet streams its results to the host through an
// output port, and every Packet it emits costs one device-to-host
// transfer with fixed per-command latency (Table II). The NDP scan's
// encoder therefore frames rows (table rows or aggregate results) into
// NDPBatchBytes-sized batches before wrapping them in a Packet — emitting one packet per
// row would multiply the D2H command count by orders of magnitude and
// silently erase the bandwidth advantage the paper measures (Fig. 7).
//
// The analyzer flags NewPacket calls inside device functions (any
// function taking a *core.Context, including closures in them) when
// the enclosing function never references NDPBatchBytes — the witness
// that its emission path is batch-framed. Fixed []byte{...} composite
// literals are exempt: one-byte control pings and handshakes are
// protocol, not data framing. Waive a deliberate per-row protocol with
// //biscuitvet:ignore ndpframing: <reason>.
package ndpframing

import (
	"go/ast"

	"biscuit/internal/analysis/framework"
)

// packetPkgs are the packages whose NewPacket constructs a D2H packet:
// the public facade and the underlying ports implementation.
var packetPkgs = map[string]bool{
	"biscuit":                true,
	"biscuit/internal/ports": true,
}

// framingConst is the batching witness a device encoder must reference.
const framingConst = "NDPBatchBytes"

// Analyzer is the ndpframing check.
var Analyzer = &framework.Analyzer{
	Name: "ndpframing",
	Doc:  "flag device encoders that wrap rows in Packets without framing output through " + framingConst + " batches",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			if !framework.HasContextParam(pass.TypesInfo, fd.Type) {
				continue
			}
			if referencesFraming(fd.Body) {
				continue
			}
			// Closures run on the same fiber and share the function's
			// framing discipline, so the whole body is in scope.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := framework.FuncFor(pass.TypesInfo, call.Fun)
				if fn == nil || fn.Name() != "NewPacket" ||
					fn.Pkg() == nil || !packetPkgs[framework.PkgPath(fn.Pkg())] {
					return true
				}
				if isFixedLiteral(call.Args) {
					return true
				}
				pass.Reportf(call.Pos(), "device function %s wraps rows in a Packet without framing output through %s batches (one D2H command per packet; batch before NewPacket, or suppress with %s)", fd.Name.Name, framingConst, pass.Directive())
				return true
			})
		}
	}
	return nil
}

// referencesFraming reports whether body mentions the framing constant
// (unqualified within internal/db, or as db.NDPBatchBytes elsewhere).
func referencesFraming(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == framingConst {
			found = true
		}
		return !found
	})
	return found
}

// isFixedLiteral reports whether the packet payload is a []byte{...}
// composite literal — a fixed-size control message, not row data.
func isFixedLiteral(args []ast.Expr) bool {
	if len(args) != 1 {
		return false
	}
	_, ok := args[0].(*ast.CompositeLit)
	return ok
}
