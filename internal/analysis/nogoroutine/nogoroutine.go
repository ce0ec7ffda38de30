// Package nogoroutine forbids raw go statements in device-side code.
//
// Paper §IV-B: all fibers of one Biscuit application run on one device
// core, which is exactly why inter-SSDlet ports are lock-free bounded
// queues. A raw goroutine inside device-side code breaks that placement
// rule — two "fibers" could then truly run in parallel and race on a
// port. Device-side means the fiber runtime itself
// (biscuit/internal/fibers), the SSDlet runtime
// (biscuit/internal/core), and every package that imports the fiber
// runtime. The cooperative primitives (fibers.Fiber, sim.Env.Spawn) are
// the only legal concurrency units there. The sim kernel has no go
// statement either: it runs process bodies as coroutines (iter.Pull)
// that it switches into and out of, never alongside. Rare exceptions
// are waived with //biscuitvet:nogoroutine-ok.
package nogoroutine

import (
	"go/ast"

	"biscuit/internal/analysis/framework"
)

const fibersPath = "biscuit/internal/fibers"

// deviceSide lists packages that are device-side even if they do not
// import the fiber runtime directly.
var deviceSide = map[string]bool{
	"biscuit/internal/core":   true,
	"biscuit/internal/fibers": true,
}

// Analyzer is the nogoroutine check.
var Analyzer = &framework.Analyzer{
	Name: "nogoroutine",
	Doc:  "forbid raw go statements in device-side packages; fibers are the only concurrency unit",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if !deviceSide[framework.PkgPath(pass.Pkg)] && !framework.ImportsPath(pass.Files, fibersPath) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if pass.InTestFile(g.Pos()) {
				return true
			}
			pass.Reportf(g.Pos(), "raw go statement in device-side code; all fibers of an application share one core — use the fiber runtime (suppress with %s)", pass.Directive())
			return true
		})
	}
	return nil
}
