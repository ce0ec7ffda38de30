// Package eventpurity enforces that simulator event callbacks and
// device-side code stay pure — transitively, through the call graph and
// across package boundaries.
//
// Same-seed runs of the simulator must be byte-identical. Event
// callbacks (the func() values handed to sim.Env.After and
// SetSchedHook) run in scheduler context between event dispatches;
// fiber bodies (fibers.Group.Go) and SSDlet code (any function taking a
// *core.Context) are the simulated device itself. None of them may
// touch the host machine: no blocking I/O (os, net, log, fmt.Print*),
// no wall-clock time.* calls, no Go channel operations (send, receive,
// select, close, range), no sync primitives, no goroutine starts. The
// simulation's own blocking primitives (fiber Block/Yield, port
// Put/Get, sim.Proc Sleep/Wait) are of course legal — internal/sim is
// the sanctioned implementation of "blocking" on virtual time and is
// exempt from this analyzer.
//
// Unlike the per-function syntactic checks (walltime, nogoroutine),
// eventpurity is a dataflow analyzer: a function is impure if it
// performs a forbidden operation directly or calls an impure function,
// computed to a fixpoint within each package and carried across package
// boundaries by IsImpure facts in the vet facts channel. A handler in
// package A that calls a helper in package B which sleeps on the wall
// clock is reported at A's registration site with the full why-chain.
//
// Limitations: dynamic calls (interface methods, function values) are
// not resolved and are assumed pure; the *core.Context rule covers the
// main dynamic dispatch point (SSDlet.Run implementations) directly.
// Host-side sim.Env.Spawn process bodies are deliberately not roots:
// host drivers legitimately print progress while the simulation runs.
//
// Suppress a deliberate exception with
// //biscuitvet:ignore eventpurity: <reason>.
package eventpurity

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"biscuit/internal/analysis/framework"
)

const (
	simPath    = "biscuit/internal/sim"
	fibersPath = "biscuit/internal/fibers"
)

// IsImpure is the cross-package fact: the function performs (or
// transitively reaches) a forbidden operation. Why carries the
// human-readable chain down to the offending operation.
type IsImpure struct {
	Why string
}

// AFact marks IsImpure as a fact.
func (*IsImpure) AFact() {}

// Analyzer is the eventpurity check.
var Analyzer = &framework.Analyzer{
	Name:      "eventpurity",
	Doc:       "forbid blocking I/O, wall-clock time, channel ops and sync primitives in code reachable from sim event callbacks, fiber bodies and device functions",
	FactTypes: []framework.Fact{(*IsImpure)(nil)},
	Run:       run,
}

// registrationSeeds maps callback-registering functions to the index of
// their callback argument. The callee retains the callback and invokes
// it from scheduler or fiber context, so the callback must be pure.
var registrationSeeds = map[string]int{
	simPath + ".Env.After":        1,
	simPath + ".Env.SetSchedHook": 0,
	fibersPath + ".Group.Go":      1,
}

// wallclock are the package time functions that read or wait on the
// wall clock (the same set walltime forbids; repeated here so the
// why-chain names the call even in packages walltime does not cover).
var wallclock = map[string]bool{
	"Now": true, "Sleep": true, "After": true, "AfterFunc": true,
	"Since": true, "Until": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// blockingPkgs are packages whose calls perform host I/O or
// environment access.
var blockingPkgs = map[string]string{
	"os":       "host I/O",
	"net":      "network I/O",
	"net/http": "network I/O",
	"syscall":  "host syscall",
	"log":      "host logging I/O",
}

// fmtImpure are the fmt functions that read or write the host's
// standard streams (Sprintf/Errorf and writer-directed Fprint* stay
// legal — writing to a bytes.Buffer is pure).
var fmtImpure = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Scan": true, "Scanf": true, "Scanln": true,
}

// impurity records why a function is impure; nil means pure (so far).
type impurity struct {
	why string
}

type checker struct {
	pass   *framework.Pass
	graph  *framework.CallGraph
	purity map[*types.Func]*impurity
}

func run(pass *framework.Pass) error {
	// The simulator kernel is the sanctioned implementation of blocking
	// on virtual time: its coroutine switch is the machinery every
	// pure-looking primitive compiles down to.
	if framework.PkgPath(pass.Pkg) == simPath {
		return nil
	}
	c := &checker{
		pass:   pass,
		graph:  framework.BuildCallGraph(pass),
		purity: map[*types.Func]*impurity{},
	}

	// Pass 1: direct impurity of every declared function.
	for _, node := range c.graph.Nodes {
		if imp := c.directImpurity(node.Decl.Body); imp != nil {
			c.purity[node.Obj] = imp
		}
	}

	// Pass 2: propagate through same-package calls (and imported facts)
	// to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, node := range c.graph.Nodes {
			if c.purity[node.Obj] != nil {
				continue
			}
			for _, cs := range node.Calls {
				if imp := c.calleeImpurity(cs.Callee); imp != nil {
					c.purity[node.Obj] = &impurity{why: c.chain(cs, imp)}
					changed = true
					break
				}
			}
		}
	}

	// Export facts so downstream packages see the verdicts.
	for _, node := range c.graph.Nodes {
		if imp := c.purity[node.Obj]; imp != nil {
			c.pass.ExportObjectFact(node.Obj, &IsImpure{Why: imp.why})
		}
	}

	// Roots 1: callback registration sites, named or literal.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || pass.InTestFile(call.Pos()) {
				return true
			}
			fn := framework.FuncFor(pass.TypesInfo, call.Fun)
			if fn == nil {
				return true
			}
			argIdx, ok := registrationSeeds[framework.FuncID(fn)]
			if !ok || argIdx >= len(call.Args) {
				return true
			}
			arg := ast.Unparen(call.Args[argIdx])
			if imp := c.exprImpurity(arg); imp != nil {
				pass.Reportf(arg.Pos(),
					"callback passed to %s must stay pure (same-seed runs must be byte-identical): %s (suppress with %s <reason>)",
					framework.PrettyName(fn), imp.why, framework.IgnorePrefix+" eventpurity:")
			}
			return true
		})
	}

	// Roots 2: device functions — anything taking a *core.Context runs
	// on a simulated device core and must be pure.
	for _, node := range c.graph.Nodes {
		if !framework.HasContextParam(pass.TypesInfo, node.Decl.Type) {
			continue
		}
		if imp := c.purity[node.Obj]; imp != nil {
			pass.Reportf(node.Decl.Name.Pos(),
				"device function %s must stay pure (it runs on a simulated device core): %s (suppress with %s <reason>)",
				node.Decl.Name.Name, imp.why, framework.IgnorePrefix+" eventpurity:")
		}
	}
	return nil
}

// exprImpurity classifies a callback expression: a function literal is
// scanned in place; a named function or method value is looked up.
func (c *checker) exprImpurity(e ast.Expr) *impurity {
	switch e := e.(type) {
	case *ast.FuncLit:
		if imp := c.directImpurity(e.Body); imp != nil {
			return imp
		}
		for _, cs := range framework.CallsIn(c.pass.TypesInfo, e.Body) {
			if imp := c.calleeImpurity(cs.Callee); imp != nil {
				return &impurity{why: c.chain(cs, imp)}
			}
		}
		return nil
	default:
		if fn := framework.FuncFor(c.pass.TypesInfo, e); fn != nil {
			if imp := c.calleeImpurity(fn); imp != nil {
				return &impurity{why: fmt.Sprintf("%s %s", fn.Name(), imp.why)}
			}
		}
	}
	return nil
}

// calleeImpurity resolves a callee's verdict: same-package fixpoint
// result, or an imported cross-package fact. Std-library calls are
// judged at the call site by directImpurity, not here.
func (c *checker) calleeImpurity(fn *types.Func) *impurity {
	if node := c.graph.NodeOf(fn); node != nil {
		return c.purity[fn]
	}
	var fact IsImpure
	if c.pass.ImportObjectFact(fn, &fact) {
		return &impurity{why: fact.Why}
	}
	return nil
}

// chain composes a why-chain through one call site.
func (c *checker) chain(cs framework.CallSite, callee *impurity) string {
	return fmt.Sprintf("calls %s (%s), which %s",
		framework.PrettyName(cs.Callee), c.pass.ShortPos(cs.Call.Pos()), callee.why)
}

// directImpurity scans one body for forbidden operations, returning the
// first in source order (nested function literals included: a closure
// constructed here will run in the same context if it runs at all, and
// the registration roots catch the cases that matter most precisely).
func (c *checker) directImpurity(body ast.Node) *impurity {
	if body == nil {
		return nil
	}
	var found *impurity
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = &impurity{why: fmt.Sprintf("sends on a channel (%s)", c.pass.ShortPos(n.Pos()))}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = &impurity{why: fmt.Sprintf("receives from a channel (%s)", c.pass.ShortPos(n.Pos()))}
			}
		case *ast.SelectStmt:
			found = &impurity{why: fmt.Sprintf("selects on channels (%s)", c.pass.ShortPos(n.Pos()))}
		case *ast.GoStmt:
			found = &impurity{why: fmt.Sprintf("starts a goroutine (%s)", c.pass.ShortPos(n.Pos()))}
		case *ast.RangeStmt:
			if t := c.pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = &impurity{why: fmt.Sprintf("ranges over a channel (%s)", c.pass.ShortPos(n.Pos()))}
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isFn := c.pass.TypesInfo.Uses[id].(*types.Func); !isFn {
					found = &impurity{why: fmt.Sprintf("closes a channel (%s)", c.pass.ShortPos(n.Pos()))}
					return false
				}
			}
			fn := framework.FuncFor(c.pass.TypesInfo, n.Fun)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch pkg := fn.Pkg().Path(); {
			case pkg == "time" && wallclock[fn.Name()]:
				found = &impurity{why: fmt.Sprintf("calls time.%s (%s)", fn.Name(), c.pass.ShortPos(n.Pos()))}
			case pkg == "sync":
				found = &impurity{why: fmt.Sprintf("uses sync.%s (%s)", fn.Name(), c.pass.ShortPos(n.Pos()))}
			case pkg == "fmt" && fmtImpure[fn.Name()]:
				found = &impurity{why: fmt.Sprintf("calls fmt.%s on the host's standard streams (%s)", fn.Name(), c.pass.ShortPos(n.Pos()))}
			default:
				if what, bad := blockingPkgs[pkg]; bad {
					found = &impurity{why: fmt.Sprintf("calls %s.%s — %s (%s)", pkg, fn.Name(), what, c.pass.ShortPos(n.Pos()))}
				}
			}
		}
		return found == nil
	})
	return found
}
