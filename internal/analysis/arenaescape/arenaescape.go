// Package arenaescape tracks arena-backed memory through assignments
// and across package boundaries, and reports values that escape their
// arena's lifetime.
//
// The repository has three families of borrowed memory:
//
//   - RowBatch rows: rows carved from a batch (RowBatch.Row, NewRow)
//     alias the batch's Value arena and are valid only until the next
//     Reset — equivalently, the next NextBatch call on the producing
//     operator.
//   - Arena windows: mem.Block.Bytes and core.Context.Bytes return a
//     window of the device arena, invalid after Free.
//   - Streamed scan buffers: the data []byte handed to ScanFile /
//     ReadThrough sink callbacks is the media's own stored page (the
//     matcher IP taps the bus, it has no staging buffer), lent only
//     for the duration of the callback.
//
// A value from any of these sources must not outlive its scope: storing
// it in a struct field or package variable, sending it on a channel,
// capturing it in a goroutine closure, or passing it to a function that
// retains its argument are all reported. Returning such a value is
// legal but recorded as a cross-package ArenaFact, so a caller in
// another package that lets the result escape is reported at its own
// sink; likewise a function that retains a parameter gets a fact and
// every call site passing arena-backed memory to it is reported.
//
// Taint is intra-procedurally flow-insensitive over reference-like
// values: slices, pointers, maps and interfaces carry taint, while
// plain values (ints, strings, db.Value, structs of such) are safe to
// copy anywhere — FinishStrings materializes string cells, so a string
// pulled out of a row is an owned Go string.
//
// Sanctioned escape hatches: Clone and Materialize calls launder taint
// (they copy out of the arena), as do string conversions and
// append-into-a-fresh-slice copies (append([]byte(nil), b...)).
// RowBatch.AppendRow is a sanctioned rescope — rows appended by
// reference are documented to follow the caller's lifetime. Anything
// else needs a reasoned //biscuitvet:ignore arenaescape: <reason>.
//
// Diagnostics with an obvious mechanical remedy carry a suggested fix
// (applied by biscuitvet -fix): .Clone() for rows, an append-copy for
// byte slices.
package arenaescape

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"biscuit/internal/analysis/framework"
)

// ArenaFact is the cross-package fact attached to a function: it
// returns arena-backed memory (Source) and/or retains some of its
// parameters past the call (Params, by index).
type ArenaFact struct {
	Source bool   `json:"source,omitempty"`
	Params []int  `json:"params,omitempty"`
	Why    string `json:"why,omitempty"`
}

// AFact marks ArenaFact as a fact.
func (*ArenaFact) AFact() {}

// Analyzer is the arenaescape check.
var Analyzer = &framework.Analyzer{
	Name:      "arenaescape",
	Doc:       "report arena-backed rows, windows and scan buffers escaping their lifetime (fields, globals, channels, goroutines, retaining callees)",
	FactTypes: []framework.Fact{(*ArenaFact)(nil)},
	Run:       run,
}

// Taint masks. Arena marks memory valid until the owning arena resets;
// borrow marks a scan buffer valid only inside its sink callback (a
// strict superset of arena's restrictions: it must not even be
// assigned to a variable outside the callback). Higher bits track
// which parameter a value derives from, for escape facts.
const (
	maskArena  uint64 = 1 << 0
	maskBorrow uint64 = 1 << 1
	paramShift        = 2
	maxParams         = 60
)

func paramBit(i int) uint64 { return 1 << uint(paramShift+i) }

// sourceSeeds are the known arena-returning functions; values describe
// what the result aliases, for diagnostics.
var sourceSeeds = map[string]string{
	"biscuit/internal/db.RowBatch.Row":    "batch row",
	"biscuit/internal/db.RowBatch.NewRow": "batch row",
	"biscuit/internal/mem.Block.Bytes":    "device arena window",
	"biscuit/internal/core.Context.Bytes": "device arena window",
}

// borrowSeeds are the streaming-read functions whose sink callback
// borrows the stored page: FuncID -> {callback argument index, data
// parameter index within the callback}.
var borrowSeeds = map[string][2]int{
	"biscuit/internal/core.Context.ScanFile":    {3, 1},
	"biscuit/internal/isfs.File.ReadThrough":    {4, 1},
	"biscuit/internal/nand.Array.ReadThrough":   {5, 0},
	"biscuit/internal/ftl.FTL.ReadThrough":      {5, 0},
	"biscuit/internal/ftl.FTL.ReadRangeThrough": {4, 1},
}

// sanctioned calls may receive arena-backed arguments: AppendRow is the
// documented rescope point (rows appended by reference follow the
// caller's lifetime, per the RowBatch contract).
var sanctioned = map[string]bool{
	"biscuit/internal/db.RowBatch.AppendRow": true,
}

// ownerTypes implement the arenas themselves; their methods manipulate
// backing stores by design and are exempt.
var ownerTypes = map[string]bool{
	"biscuit/internal/db.RowBatch": true,
	"biscuit/internal/db.Row":      true,
	"biscuit/internal/mem.Arena":   true,
	"biscuit/internal/mem.Block":   true,
}

// sanitizers are the copy-out escape hatches: calling one of these on
// (or with) tainted memory yields owned memory.
var sanitizers = map[string]bool{
	"Clone":       true,
	"Materialize": true,
}

type checker struct {
	pass  *framework.Pass
	graph *framework.CallGraph
	local map[*types.Func]*ArenaFact // facts for this package, grown to fixpoint
}

func run(pass *framework.Pass) error {
	c := &checker{
		pass:  pass,
		graph: framework.BuildCallGraph(pass),
		local: map[*types.Func]*ArenaFact{},
	}
	var nodes []*framework.FuncNode
	for _, n := range c.graph.Nodes {
		if ownerMethod(n.Obj) {
			continue
		}
		nodes = append(nodes, n)
	}
	// Grow Source/Params facts to a package-level fixpoint (a retains b's
	// param, b retains c's...). Chains longer than the bound do not
	// occur; the bound only guards termination.
	for round := 0; round < 20; round++ {
		changed := false
		for _, n := range nodes {
			if c.analyze(n, false) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, n := range nodes {
		if f := c.local[n.Obj]; f != nil {
			pass.ExportObjectFact(n.Obj, f)
		}
	}
	// Reporting pass, with the facts final.
	for _, n := range nodes {
		c.analyze(n, true)
	}
	return nil
}

// fnState is the per-function analysis state: the taint environment
// plus the source ranges of borrow callbacks (for the escapes-callback
// sink).
type fnState struct {
	c       *checker
	node    *framework.FuncNode
	taint   map[types.Object]uint64
	borrows []*ast.FuncLit

	// fact accumulation (non-report mode)
	source    bool
	escParams map[int]bool
	why       string
}

// analyze runs taint propagation over one function. In fact mode
// (report=false) it grows c.local[node.Obj] and reports whether the
// fact changed; in report mode it emits diagnostics at sinks.
func (c *checker) analyze(node *framework.FuncNode, report bool) bool {
	s := &fnState{c: c, node: node, taint: map[types.Object]uint64{}, escParams: map[int]bool{}}

	// Parameters are tracked so stores of them become escape facts.
	sig := node.Obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len() && i < maxParams; i++ {
		p := sig.Params().At(i)
		if refLike(p.Type()) {
			s.taint[p] = paramBit(i)
		}
	}

	// Borrow callbacks: taint their data parameter, remember their
	// extent.
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.FuncFor(c.pass.TypesInfo, call.Fun)
		if fn == nil {
			return true
		}
		idx, ok := borrowSeeds[framework.FuncID(fn)]
		if !ok || idx[0] >= len(call.Args) {
			return true
		}
		lit, ok := ast.Unparen(call.Args[idx[0]]).(*ast.FuncLit)
		if !ok {
			return true
		}
		if p := litParam(c.pass.TypesInfo, lit, idx[1]); p != nil {
			s.taint[p] = maskBorrow
			s.borrows = append(s.borrows, lit)
		}
		return true
	})

	// Propagate taint through assignments to a fixpoint.
	for {
		changed := false
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					m := s.rhsMask(n.Rhs, i, len(n.Lhs))
					if s.taintLocal(lhs, m) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					m := s.rhsMask(n.Values, i, len(n.Names))
					if s.taintLocal(name, m) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				m := s.exprMask(n.X)
				if m != 0 && n.Value != nil {
					if s.taintLocal(n.Value, m) {
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	// Sink pass.
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				m := s.rhsMask(n.Rhs, i, len(n.Lhs))
				var value ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					value = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					value = n.Rhs[0]
				}
				s.checkStore(n.Pos(), lhs, value, m, report)
			}
		case *ast.SendStmt:
			if m := s.exprMask(n.Value); m != 0 {
				s.sink(n.Pos(), m, report, n.Value,
					"%s sent on a channel: the receiver may use it after the arena is reset — send a copy (Clone/Materialize)")
			}
		case *ast.GoStmt:
			m := s.exprMask(n.Call.Fun)
			for _, a := range n.Call.Args {
				m |= s.exprMask(a)
			}
			if m != 0 {
				s.sink(n.Pos(), m, report, nil,
					"%s captured by goroutine: host concurrency outlives the arena scope — hand it a copy (Clone/Materialize)")
			}
		case *ast.CallExpr:
			s.checkCall(n, report)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				m := s.exprMask(r)
				if m&maskBorrow != 0 {
					s.sink(r.Pos(), m, report, r,
						"%s returned: a streamed scan buffer is valid only inside its sink callback — return a copy")
				} else if m&maskArena != 0 && !report {
					s.source = true
					if s.why == "" {
						s.why = "returns arena-backed memory at " + c.pass.ShortPos(r.Pos())
					}
				}
			}
		}
		return true
	})

	if report {
		return false
	}
	// Fold results into the local fact; report change.
	if !s.source && len(s.escParams) == 0 {
		return false
	}
	f := c.local[node.Obj]
	if f == nil {
		f = &ArenaFact{}
		c.local[node.Obj] = f
	}
	changed := false
	if s.source && !f.Source {
		f.Source = true
		changed = true
	}
	for i := range s.escParams {
		if !slices.Contains(f.Params, i) {
			f.Params = append(f.Params, i)
			changed = true
		}
	}
	slices.Sort(f.Params)
	if f.Why == "" && s.why != "" {
		f.Why = s.why
		changed = true
	}
	return changed
}

// rhsMask computes the taint flowing into LHS slot i of an assignment
// with the given RHS list (1:1, or one multi-value call).
func (s *fnState) rhsMask(rhs []ast.Expr, i, nlhs int) uint64 {
	if len(rhs) == nlhs && i < len(rhs) {
		return s.exprMask(rhs[i])
	}
	// Multi-value call: seeds and Source facts taint result 0 only (the
	// data value; trailing results are ok/err flags).
	if len(rhs) == 1 && i == 0 {
		return s.exprMask(rhs[0])
	}
	return 0
}

// taintLocal folds mask m into the object behind a plain local LHS
// (ident, or index/star of a tainted-able local container), reporting
// whether the taint set grew. Field and global stores are sinks, not
// propagation, and are handled by checkStore.
func (s *fnState) taintLocal(lhs ast.Expr, m uint64) bool {
	if m == 0 {
		return false
	}
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := s.objOf(lhs)
		if obj == nil || !isLocal(obj, s.c.pass.Pkg) || !refLike(obj.Type()) {
			return false
		}
		if s.taint[obj]&m == m {
			return false
		}
		s.taint[obj] |= m
		return true
	case *ast.IndexExpr:
		// container[i] = tainted: the container now holds the reference.
		return s.taintLocal(lhs.X, m)
	}
	return false
}

// checkStore classifies one assignment LHS and fires the matching sink:
// struct fields, package variables, and — for borrowed scan buffers —
// any variable declared outside the borrowing callback.
func (s *fnState) checkStore(pos token.Pos, lhs, value ast.Expr, m uint64, report bool) {
	if m == 0 {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := s.objOf(l)
		if obj == nil {
			return
		}
		if isPkgLevel(obj, s.c.pass.Pkg) {
			s.sink(pos, m, report, value,
				"%s stored in package variable "+l.Name+": it outlives the arena — store a copy (Clone/Materialize)")
			return
		}
		// A borrowed buffer assigned to a variable that outlives the
		// sink callback escapes even if the variable is a local.
		if m&maskBorrow != 0 {
			if lit := s.borrowAt(pos); lit != nil && !within(obj.Pos(), lit) {
				s.sink(pos, m, report, value,
					"%s escapes its sink callback into "+l.Name+": the buffer is reused after the callback returns — copy it first (append([]byte(nil), b...))")
			}
		}
	case *ast.SelectorExpr:
		obj := s.c.pass.TypesInfo.Uses[l.Sel]
		if obj == nil {
			return
		}
		if isPkgLevel(obj, s.c.pass.Pkg) {
			s.sink(pos, m, report, value,
				"%s stored in package variable "+l.Sel.Name+": it outlives the arena — store a copy (Clone/Materialize)")
			return
		}
		if _, isField := obj.(*types.Var); isField {
			s.sink(pos, m, report, value,
				"%s stored in field "+l.Sel.Name+": batch rows and arena windows are valid only until the next Reset/NextBatch — store a copy (Clone/Materialize)")
		}
	case *ast.IndexExpr:
		// s.f[i] = tainted is a field store; local[i] = tainted was
		// already folded into the container's taint by taintLocal.
		if inner, ok := ast.Unparen(l.X).(*ast.SelectorExpr); ok {
			s.checkStore(pos, inner, value, m, report)
		}
	case *ast.StarExpr:
		// *p = tainted with p a parameter: the caller's memory now
		// holds the reference — an escape through p.
		if pm := s.exprMask(l.X); pm != 0 {
			s.escape(pm, report)
		}
	}
}

// checkCall reports arena-backed arguments passed to callees known (by
// local fixpoint or imported fact) to retain them.
func (s *fnState) checkCall(call *ast.CallExpr, report bool) {
	fn := framework.FuncFor(s.c.pass.TypesInfo, call.Fun)
	if fn == nil {
		return
	}
	id := framework.FuncID(fn)
	if sanctioned[id] {
		return
	}
	fact := s.c.factOf(fn)
	if fact == nil || len(fact.Params) == 0 {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	for _, pi := range fact.Params {
		ai := pi
		if sig != nil && sig.Variadic() && pi >= sig.Params().Len()-1 {
			// all variadic slots map to the last parameter
			for ; ai < len(call.Args); ai++ {
				s.checkRetainedArg(call, fn, ai, pi, report)
			}
			continue
		}
		if ai < len(call.Args) {
			s.checkRetainedArg(call, fn, ai, pi, report)
		}
	}
}

func (s *fnState) checkRetainedArg(call *ast.CallExpr, fn *types.Func, argIdx, paramIdx int, report bool) {
	m := s.exprMask(call.Args[argIdx])
	if m == 0 {
		return
	}
	s.sink(call.Args[argIdx].Pos(), m, report, call.Args[argIdx],
		fmt.Sprintf("%%s passed to %s, which retains its argument %d past the call — pass a copy (Clone/Materialize)",
			framework.PrettyName(fn), paramIdx))
}

// sink fires one sink: arena/borrow taint becomes a diagnostic (in
// report mode), parameter taint becomes an escape fact (in fact mode).
// format must contain exactly one %s, filled with what escaped.
func (s *fnState) sink(pos token.Pos, m uint64, report bool, value ast.Expr, format string) {
	if m&(maskArena|maskBorrow) != 0 && report {
		what := "arena-backed value"
		if m&maskBorrow != 0 {
			what = "borrowed scan buffer"
		}
		d := framework.Diagnostic{
			Pos:     pos,
			Message: fmt.Sprintf(format, what),
		}
		if value != nil {
			if fix := s.fixFor(value); fix != nil {
				d.SuggestedFixes = []framework.SuggestedFix{*fix}
			}
		}
		s.c.pass.Report(d)
	}
	if !report {
		s.escape(m, report)
	}
}

// escape records which of the function's parameters reach a sink.
func (s *fnState) escape(m uint64, report bool) {
	if report {
		return
	}
	for i := 0; i < maxParams; i++ {
		if m&paramBit(i) != 0 {
			s.escParams[i] = true
		}
	}
}

// fixFor builds the mechanical remedy for a tainted value, when one is
// obvious: .Clone() for db.Row, an append-copy for byte slices.
func (s *fnState) fixFor(value ast.Expr) *framework.SuggestedFix {
	leaf := s.taintedLeaf(value)
	if leaf == nil {
		return nil
	}
	t := s.c.pass.TypesInfo.TypeOf(leaf)
	if t == nil {
		return nil
	}
	if named, ok := types.Unalias(t).(*types.Named); ok && named.Obj().Name() == "Row" {
		return &framework.SuggestedFix{
			Message: "clone the row",
			TextEdits: []framework.TextEdit{
				{Pos: leaf.End(), End: leaf.End(), NewText: []byte(".Clone()")},
			},
		}
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		if b, ok := sl.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
			return &framework.SuggestedFix{
				Message: "copy the buffer",
				TextEdits: []framework.TextEdit{
					{Pos: leaf.Pos(), End: leaf.Pos(), NewText: []byte("append([]byte(nil), ")},
					{Pos: leaf.End(), End: leaf.End(), NewText: []byte("...)")},
				},
			}
		}
	}
	return nil
}

// taintedLeaf descends into composite expressions (append calls,
// composite literals) to the innermost tainted sub-expression, the one
// a fix should wrap.
func (s *fnState) taintedLeaf(e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if s.exprMask(e)&(maskArena|maskBorrow) == 0 {
		return nil
	}
	switch ex := e.(type) {
	case *ast.CallExpr:
		if isBuiltin(s.c.pass.TypesInfo, ex.Fun, "append") {
			for _, a := range ex.Args {
				if leaf := s.taintedLeaf(a); leaf != nil {
					return leaf
				}
			}
			return nil
		}
	case *ast.CompositeLit:
		for _, elt := range ex.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if leaf := s.taintedLeaf(elt); leaf != nil {
				return leaf
			}
		}
		return nil
	}
	return e
}

// borrowAt returns the innermost borrow callback whose extent contains
// pos, or nil.
func (s *fnState) borrowAt(pos token.Pos) *ast.FuncLit {
	var best *ast.FuncLit
	for _, lit := range s.borrows {
		if lit.Pos() <= pos && pos <= lit.End() {
			if best == nil || lit.Pos() > best.Pos() {
				best = lit
			}
		}
	}
	return best
}

// exprMask computes the taint carried by an expression under the
// current taint environment. It is side-effect free.
func (s *fnState) exprMask(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	info := s.c.pass.TypesInfo
	switch e := e.(type) {
	case *ast.Ident:
		if obj := s.objOf(e); obj != nil {
			return s.taint[obj]
		}
	case *ast.ParenExpr:
		return s.exprMask(e.X)
	case *ast.StarExpr:
		return s.exprMask(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return s.exprMask(e.X)
		}
	case *ast.SliceExpr:
		return s.exprMask(e.X)
	case *ast.TypeAssertExpr:
		return s.exprMask(e.X)
	case *ast.IndexExpr:
		// rows[i] aliases the container's memory when the element is
		// reference-like; buf[i] is a plain byte.
		if t := info.TypeOf(e); t != nil && refLike(t) {
			return s.exprMask(e.X)
		}
	case *ast.SelectorExpr:
		// Field reads propagate the base's taint when the field is
		// reference-like; method values and package vars do not.
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if t := info.TypeOf(e); t != nil && refLike(t) {
				return s.exprMask(e.X)
			}
		}
	case *ast.CompositeLit:
		var m uint64
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			m |= s.exprMask(elt)
		}
		return m
	case *ast.FuncLit:
		// A closure carrying tainted captures is as tainted as what it
		// captures: storing or shipping the closure ships the memory.
		var m uint64
		ast.Inspect(e.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || within(obj.Pos(), e) {
				return true
			}
			m |= s.taint[obj]
			return true
		})
		return m
	case *ast.CallExpr:
		return s.callMask(e)
	}
	return 0
}

// callMask computes the taint of a call's result: conversions and
// builtins propagate, sanitizers launder, seeds and Source facts taint.
func (s *fnState) callMask(call *ast.CallExpr) uint64 {
	info := s.c.pass.TypesInfo
	// Conversion: string(b) copies (safe); T(x) for reference-like T
	// re-labels the same memory.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			return 0
		}
		return s.exprMask(call.Args[0])
	}
	if isBuiltin(info, call.Fun, "append") {
		m := s.exprMask(call.Args[0])
		// Appended elements are copied; they only carry taint into the
		// result when the element type itself is reference-like
		// (append(rows, r) keeps r's backing; append(dst, b...) copies
		// bytes).
		if t := info.TypeOf(call); t != nil {
			if sl, ok := t.Underlying().(*types.Slice); ok && refLike(sl.Elem()) {
				for _, a := range call.Args[1:] {
					m |= s.exprMask(a)
				}
			}
		}
		return m
	}
	fn := framework.FuncFor(info, call.Fun)
	if fn == nil {
		return 0
	}
	if sanitizers[fn.Name()] {
		return 0
	}
	if _, ok := sourceSeeds[framework.FuncID(fn)]; ok {
		return maskArena
	}
	if fact := s.c.factOf(fn); fact != nil && fact.Source {
		return maskArena
	}
	return 0
}

// factOf resolves a callee's ArenaFact: the local fixpoint result for
// same-package functions, an imported fact otherwise.
func (c *checker) factOf(fn *types.Func) *ArenaFact {
	if node := c.graph.NodeOf(fn); node != nil {
		return c.local[fn]
	}
	var fact ArenaFact
	if c.pass.ImportObjectFact(fn, &fact) {
		return &fact
	}
	return nil
}

func (s *fnState) objOf(id *ast.Ident) types.Object {
	info := s.c.pass.TypesInfo
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// ownerMethod reports whether fn is a method of one of the arena
// implementation types.
func ownerMethod(fn *types.Func) bool {
	recv := framework.ReceiverTypeName(fn)
	if recv == "" || fn.Pkg() == nil {
		return false
	}
	return ownerTypes[framework.PkgPath(fn.Pkg())+"."+recv]
}

// litParam resolves the i-th parameter object of a function literal.
func litParam(info *types.Info, lit *ast.FuncLit, i int) types.Object {
	if lit.Type.Params == nil {
		return nil
	}
	at := 0
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if at == i {
				return info.Defs[name]
			}
			at++
		}
		if len(field.Names) == 0 {
			at++
		}
	}
	return nil
}

// refLike reports whether values of t can alias arena memory: slices,
// pointers, maps, channels, funcs and interfaces do; basics (including
// strings — FinishStrings materializes string cells), and
// structs/arrays of such, are safe plain copies.
func refLike(t types.Type) bool { return !valueSafe(t, 0) }

func valueSafe(t types.Type, depth int) bool {
	if depth > 8 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !valueSafe(u.Field(i).Type(), depth+1) {
				return false
			}
		}
		return true
	case *types.Array:
		return valueSafe(u.Elem(), depth+1)
	}
	return false
}

func isLocal(obj types.Object, pkg *types.Package) bool {
	return obj.Pkg() == pkg && obj.Parent() != pkg.Scope()
}

func isPkgLevel(obj types.Object, pkg *types.Package) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() == pkg && v.Parent() == pkg.Scope()
}

func within(pos token.Pos, lit *ast.FuncLit) bool {
	return lit.Pos() <= pos && pos <= lit.End()
}

func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
