package sql

import (
	"fmt"
	"strconv"
	"strings"

	"biscuit/internal/db"
	"biscuit/internal/db/planner"
)

// Result is a completed query.
type Result struct {
	Cols []string
	Rows []db.Row
	// Decision is the offload planner's verdict for the candidate scan
	// (nil when no planner was supplied or no scan had a predicate).
	Decision *planner.Decision
}

// Run parses, plans and executes one SELECT against d. With pl non-nil
// the scan of the candidate table (the largest FROM table that has a
// pushed-down filter) consults the Biscuit offload planner, mirroring
// the paper's modified MariaDB.
//
// When the platform records a trace, the whole statement runs under a
// "sql.query" span on the "host/query" track — the root span tracestat
// anchors its critical-path and per-layer breakdown to.
func Run(ex *db.Exec, d *db.Database, pl *planner.Planner, query string) (*Result, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	if tr := ex.H.System().Plat.Trace; tr != nil {
		sp := tr.Begin(tr.Track("host/query"), "sql.query")
		defer sp.End()
	}
	return runStmt(ex, d, pl, stmt)
}

func runStmt(ex *db.Exec, d *db.Database, pl *planner.Planner, stmt *SelectStmt) (*Result, error) {
	// Resolve FROM tables.
	var tables []*db.Table
	for _, name := range stmt.From {
		t, ok := d.Tables()[name]
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", name)
		}
		tables = append(tables, t)
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("sql: empty FROM")
	}

	// Split WHERE into per-table predicates, equi-join predicates and a
	// residual.
	conjuncts := splitAnd(stmt.Where)
	perTable := make([]Node, len(tables))
	type joinPred struct{ a, b ColNode }
	var joins []joinPred
	var residual []Node
	for _, c := range conjuncts {
		if a, bcol, ok := asEquiJoin(c); ok {
			ta, erra := tableOf(tables, a)
			tb, errb := tableOf(tables, bcol)
			if erra == nil && errb == nil && ta != tb {
				joins = append(joins, joinPred{a, bcol})
				continue
			}
		}
		if ti, ok := singleTable(tables, c); ok {
			perTable[ti] = andNodes(perTable[ti], c)
			continue
		}
		residual = append(residual, c)
	}

	// Pick the offload candidate: largest table with a filter.
	cand := -1
	for i, t := range tables {
		if perTable[i] != nil && (cand < 0 || t.Pages > tables[cand].Pages) {
			cand = i
		}
	}

	var decision *planner.Decision
	buildScan := func(i int) (db.Iterator, error) {
		var pred db.Expr
		if perTable[i] != nil {
			r := &resolver{sch: tables[i].Sch}
			p, _, err := r.expr(perTable[i])
			if err != nil {
				return nil, err
			}
			pred = p
		}
		if pl != nil && i == cand && pred != nil {
			it, dec := pl.PlanScan(ex, tables[i], pred)
			decision = &dec
			return it, nil
		}
		return ex.NewConvScan(tables[i], pred), nil
	}

	// Join order: the candidate first when offloaded-capable planning is
	// on (the paper's NDP-first heuristic), otherwise FROM order.
	order := make([]int, 0, len(tables))
	if pl != nil && cand >= 0 {
		order = append(order, cand)
	}
	for i := range tables {
		if len(order) > 0 && i == order[0] {
			continue
		}
		order = append(order, i)
	}

	// Left-deep hash joins following available equi-join predicates.
	cur, err := buildScan(order[0])
	if err != nil {
		return nil, err
	}
	joined := map[int]bool{order[0]: true}
	remaining := append([]int(nil), order[1:]...)
	usedJoin := make([]bool, len(joins))
	for len(remaining) > 0 {
		progressed := false
		for ri, ti := range remaining {
			// Find a join predicate connecting ti to the joined set.
			for ji, jp := range joins {
				if usedJoin[ji] {
					continue
				}
				la, _ := tableOf(tables, jp.a)
				lb, _ := tableOf(tables, jp.b)
				var joinedCol, newCol ColNode
				switch {
				case joined[la] && lb == ti:
					joinedCol, newCol = jp.a, jp.b
				case joined[lb] && la == ti:
					joinedCol, newCol = jp.b, jp.a
				default:
					continue
				}
				right, err := buildScan(ti)
				if err != nil {
					return nil, err
				}
				lk, _, err := (&resolver{sch: cur.Schema()}).expr(joinedCol)
				if err != nil {
					return nil, err
				}
				rk, _, err := (&resolver{sch: right.Schema()}).expr(newCol)
				if err != nil {
					return nil, err
				}
				cur = &db.HashJoin{Ex: ex, Left: cur, Right: right, LeftKey: lk, RightKey: rk}
				joined[ti] = true
				usedJoin[ji] = true
				remaining = append(remaining[:ri], remaining[ri+1:]...)
				progressed = true
				break
			}
			if progressed {
				break
			}
		}
		if !progressed {
			return nil, fmt.Errorf("sql: no join predicate connects table %q", tables[remaining[0]].Name)
		}
	}
	// Any join predicates left (e.g. a second equality between already
	// joined tables) become residual filters.
	for ji, jp := range joins {
		if !usedJoin[ji] {
			residual = append(residual, BinNode{Op: "=", L: jp.a, R: jp.b})
		}
	}
	if len(residual) > 0 {
		r := &resolver{sch: cur.Schema()}
		var pred db.Expr
		for _, n := range residual {
			p, _, err := r.expr(n)
			if err != nil {
				return nil, err
			}
			if pred == nil {
				pred = p
			} else {
				pred = db.AndOf(pred, p)
			}
		}
		cur = &db.FilterOp{Ex: ex, In: cur, Pred: pred}
	}

	// Aggregation, ordering and projection.
	out, cols, err := buildOutput(ex, cur, stmt)
	if err != nil {
		return nil, err
	}
	if stmt.Limit >= 0 {
		out = &db.LimitOp{In: out, N: stmt.Limit}
	}

	rows, err := db.Collect(out)
	if err != nil {
		return nil, err
	}
	ex.FlushCost()
	return &Result{Cols: cols, Rows: rows, Decision: decision}, nil
}

// buildOutput translates the SELECT list (aggregate or plain), applies
// ORDER BY against the pre-projection schema — so keys may reference
// aggregates or unprojected columns — and projects. It returns the root
// operator and the output column names.
func buildOutput(ex *db.Exec, in db.Iterator, stmt *SelectStmt) (db.Iterator, []string, error) {
	hasAgg := len(stmt.GroupBy) > 0
	for _, it := range stmt.Items {
		if !it.Star && containsAgg(it.Expr) {
			hasAgg = true
		}
	}
	r := &resolver{sch: in.Schema()}
	if hasAgg {
		var err error
		if in, r, err = buildAgg(ex, in, stmt); err != nil {
			return nil, nil, err
		}
	}
	// Sort before projecting: keys may name columns the projection
	// drops, or aliases of projected expressions.
	if len(stmt.OrderBy) > 0 {
		alias := map[string]Node{}
		for _, it := range stmt.Items {
			if it.Alias != "" {
				alias[it.Alias] = it.Expr
			}
		}
		var keys []db.SortKey
		for _, oi := range stmt.OrderBy {
			node := oi.Expr
			if c, ok := node.(ColNode); ok && c.Table == "" {
				// An alias beats an input column only under aggregation.
				if a, hit := alias[c.Name]; hit && (hasAgg || !r.sch.HasCol(c.Name)) {
					node = a
				}
			}
			e, _, err := r.expr(node)
			if err != nil {
				return nil, nil, err
			}
			keys = append(keys, db.SortKey{E: e, Desc: oi.Desc})
		}
		in = &db.SortOp{Ex: ex, In: in, Keys: keys}
	}
	if len(stmt.Items) == 1 && stmt.Items[0].Star {
		return in, in.Schema().Names(), nil
	}
	var exprs []db.Expr
	var names []string
	for i, it := range stmt.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("sql: * mixed with expressions is unsupported")
		}
		e, _, err := r.expr(it.Expr)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		names = append(names, itemName(it, i))
	}
	return &db.ProjectOp{Ex: ex, In: in, Exprs: exprs, Names: names}, names, nil
}

// buildAgg resolves GROUP BY, collects the aggregates of the select list
// and ORDER BY, and returns the aggregate over in with a resolver over
// its output: group-by expressions and aggregate calls become column
// references there.
func buildAgg(ex *db.Exec, in db.Iterator, stmt *SelectStmt) (db.Iterator, *resolver, error) {
	r := &resolver{sch: in.Schema()}
	var groupExprs []db.Expr
	var groupNames []string
	for i, g := range stmt.GroupBy {
		e, _, err := r.expr(g)
		if err != nil {
			return nil, nil, err
		}
		groupExprs = append(groupExprs, e)
		groupNames = append(groupNames, nodeName(g, fmt.Sprintf("g%d", i)))
	}
	var aggs []db.Agg
	aggIndex := map[string]int{} // canonical AST string -> agg slot
	collect := func(n Node) error {
		var werr error
		walk(n, func(x Node) {
			a, ok := x.(AggNode)
			if !ok || werr != nil {
				return
			}
			key := nodeString(a)
			if _, dup := aggIndex[key]; dup {
				return
			}
			var arg db.Expr
			if a.Arg != nil {
				e, _, err := r.expr(a.Arg)
				if err != nil {
					werr = err
					return
				}
				arg = e
			}
			fn, err := aggFunc(a)
			if err != nil {
				werr = err
				return
			}
			aggIndex[key] = len(aggs)
			aggs = append(aggs, db.Agg{F: fn, Arg: arg, Name: fmt.Sprintf("a%d", len(aggs))})
		})
		return werr
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("sql: * is not valid in an aggregate query")
		}
		if err := collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	for _, oi := range stmt.OrderBy {
		if err := collect(oi.Expr); err != nil {
			return nil, nil, err
		}
	}
	aggOp := &db.HashAggOp{Ex: ex, In: in, GroupBy: groupExprs, GroupNms: groupNames, Aggs: aggs}
	outR := &resolver{sch: aggOp.Schema(), rewrites: map[string]string{}}
	for i, g := range stmt.GroupBy {
		outR.rewrites[nodeString(g)] = groupNames[i]
	}
	for key, slot := range aggIndex {
		outR.rewrites[key] = aggs[slot].Name
	}
	return aggOp, outR, nil
}

func aggFunc(a AggNode) (db.AggFunc, error) {
	switch a.Fn {
	case "SUM":
		return db.Sum, nil
	case "COUNT":
		if a.Distinct {
			return db.CountDistinct, nil
		}
		return db.CountAgg, nil
	case "AVG":
		return db.Avg, nil
	case "MIN":
		return db.Min, nil
	case "MAX":
		return db.Max, nil
	}
	return 0, fmt.Errorf("sql: unknown aggregate %q", a.Fn)
}

func itemName(it SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(ColNode); ok {
		return c.Name
	}
	return fmt.Sprintf("c%d", i)
}

func nodeName(n Node, fallback string) string {
	if c, ok := n.(ColNode); ok {
		return c.Name
	}
	return fallback
}

// ---- WHERE analysis helpers ----

func splitAnd(n Node) []Node {
	if n == nil {
		return nil
	}
	if b, ok := n.(BinNode); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Node{n}
}

func andNodes(a, b Node) Node {
	if a == nil {
		return b
	}
	return BinNode{Op: "AND", L: a, R: b}
}

func asEquiJoin(n Node) (ColNode, ColNode, bool) {
	b, ok := n.(BinNode)
	if !ok || b.Op != "=" {
		return ColNode{}, ColNode{}, false
	}
	l, lok := b.L.(ColNode)
	r, rok := b.R.(ColNode)
	if !lok || !rok {
		return ColNode{}, ColNode{}, false
	}
	return l, r, true
}

// tableOf locates the table a column belongs to.
func tableOf(tables []*db.Table, c ColNode) (int, error) {
	if c.Table != "" {
		for i, t := range tables {
			if t.Name == c.Table {
				if !t.Sch.HasCol(c.Name) {
					return 0, fmt.Errorf("sql: table %q has no column %q", c.Table, c.Name)
				}
				return i, nil
			}
		}
		return 0, fmt.Errorf("sql: unknown table %q", c.Table)
	}
	found := -1
	for i, t := range tables {
		if t.Sch.HasCol(c.Name) {
			if found >= 0 {
				return 0, fmt.Errorf("sql: ambiguous column %q", c.Name)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", c.Name)
	}
	return found, nil
}

// singleTable reports whether every column in n belongs to one table.
func singleTable(tables []*db.Table, n Node) (int, bool) {
	ti := -1
	ok := true
	walk(n, func(x Node) {
		c, isCol := x.(ColNode)
		if !isCol || !ok {
			return
		}
		i, err := tableOf(tables, c)
		if err != nil {
			ok = false
			return
		}
		if ti < 0 {
			ti = i
		} else if ti != i {
			ok = false
		}
	})
	return ti, ok && ti >= 0
}

// containsAgg reports whether the expression contains an aggregate call.
func containsAgg(n Node) bool {
	found := false
	walk(n, func(x Node) {
		if _, ok := x.(AggNode); ok {
			found = true
		}
	})
	return found
}

// walk visits every node in the AST.
func walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	switch x := n.(type) {
	case BinNode:
		walk(x.L, fn)
		walk(x.R, fn)
	case NotNode:
		walk(x.X, fn)
	case LikeNode:
		walk(x.X, fn)
	case InNode:
		walk(x.X, fn)
		for _, v := range x.Vals {
			walk(v, fn)
		}
	case BetweenNode:
		walk(x.X, fn)
		walk(x.Lo, fn)
		walk(x.Hi, fn)
	case AggNode:
		walk(x.Arg, fn)
	}
}

// nodeString is a canonical textual form used for structural equality.
func nodeString(n Node) string {
	switch x := n.(type) {
	case nil:
		return "<nil>"
	case ColNode:
		if x.Table != "" {
			return x.Table + "." + x.Name
		}
		return x.Name
	case NumNode:
		return x.Text
	case StrNode:
		return strconv.Quote(x.S)
	case DateNode:
		return "DATE " + strconv.Quote(x.S)
	case BinNode:
		return "(" + nodeString(x.L) + " " + x.Op + " " + nodeString(x.R) + ")"
	case NotNode:
		return "NOT " + nodeString(x.X)
	case LikeNode:
		op := "LIKE"
		if x.Negate {
			op = "NOT LIKE"
		}
		return "(" + nodeString(x.X) + " " + op + " " + strconv.Quote(x.Pattern) + ")"
	case InNode:
		var parts []string
		for _, v := range x.Vals {
			parts = append(parts, nodeString(v))
		}
		op := "IN"
		if x.Negate {
			op = "NOT IN"
		}
		return "(" + nodeString(x.X) + " " + op + " (" + strings.Join(parts, ",") + "))"
	case BetweenNode:
		return "(" + nodeString(x.X) + " BETWEEN " + nodeString(x.Lo) + " AND " + nodeString(x.Hi) + ")"
	case AggNode:
		arg := "*"
		if x.Arg != nil {
			arg = nodeString(x.Arg)
		}
		if x.Distinct {
			arg = "DISTINCT " + arg
		}
		return x.Fn + "(" + arg + ")"
	}
	return fmt.Sprintf("%#v", n)
}
