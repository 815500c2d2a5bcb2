package precompiler

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Liveness: the paper's third way to shrink a checkpoint (Section 7,
// "checkpoint live data only"), decided here as Marques et al. decide it in
// the C3 precompiler. A leading variable of an instrumented function is
// dead, and gets no Register, no Unregister and no Touch, when
//
//   - its declaration allocates it, var v = make([]T, n), with T a scalar
//     element the checkpoint lays out and n built from literals, the
//     function's parameters, the rank's Rank() and Size() and leading variables
//     initialized the same way: the restart path runs the leading var group
//     before the resume dispatch, so it recreates v at the same length.
//     Every other assignment to v is from another such variable of the same
//     length expression (a buffer swap), so the length holds;
//   - every path from each checkpoint site of the function writes all of it
//     before any read of it.
//
// "Writes all of it" is proven without types, for three forms whose body
// stores v[i] on every branch and mentions v nowhere else:
//
//	for i := range v { ... }
//	for i := 0; i < n; i++ { ... }              // v made with length n
//	for a := 0; a < rows; a++ {                 // v made with length rows*cols
//		...
//		for b := 0; b < cols; b++ { ... v[a*cols+b] = ... }
//	}
//
// and a whole assignment v = w. Anything else that mentions v reads it. The
// bounds must be variables never assigned after their declaration, so they
// still equal the length v was made with. A function with a label or a
// branch statement, and a variable named inside a closure, a defer or a go
// statement, or declared twice, keep every variable live. Like the VDS
// itself, the rule assumes no two registered variables share an array.
//
// A variable dead at some sites and live at others stays registered, and is
// reported (Result.Mixed).

// effect is what a statement does to the value a variable holds when the
// statement starts.
type effect int

const (
	// passes: no path reads it before writing all of it, and some path
	// leaves it (partly) unwritten.
	passes effect = iota
	// kills: every path writes all of it, or ends the function, before
	// reading it.
	kills
	// reads: some path reads it before writing all of it.
	reads
)

// join is the effect of a choice between two paths.
func join(a, b effect) effect {
	switch {
	case a == reads || b == reads:
		return reads
	case a == kills && b == kills:
		return kills
	}
	return passes
}

// frame is one level of the statement lists that enclose a site: list holds
// the site, or the statement that holds it, at index; owner is the
// statement whose body list is (nil for the function body).
type frame struct {
	list  []ast.Stmt
	index int
	owner ast.Stmt
}

// site is a checkpoint site, with the lists that enclose it, innermost
// last. At a call site a resumed execution re-runs the call itself.
type site struct {
	frames []frame
	call   bool
}

// liveness holds one function's facts.
type liveness struct {
	c      *funcCtx
	body   *ast.BlockStmt
	params map[string]bool
	lead   map[string]*leadVar
	// declared counts every declaration of each name in the function;
	// writes lists, for each name written after its declaration, what each
	// write stores: the source of a plain one-to-one assignment, or nil.
	declared map[string]int
	writes   map[string][]ast.Expr
	// hidden names the variables a closure, defer or go statement mentions.
	hidden map[string]bool
	// shape maps each candidate to the length expression it was made with.
	shape map[string]ast.Expr
}

// leadVar is a leading variable and its initializer, if any.
type leadVar struct {
	index int
	init  ast.Expr
}

// deadVars returns the leading variables of fd dead at every checkpoint
// site, and those dead at some sites only. It reads the body before
// instrumentation.
func (c *funcCtx) deadVars(fd *ast.FuncDecl, lead []ast.Stmt) (dead map[string]bool, mixed []string) {
	if hasBranches(fd.Body) {
		return nil, nil
	}
	a := &liveness{
		c: c, body: fd.Body, params: map[string]bool{}, lead: map[string]*leadVar{},
		declared: map[string]int{}, writes: map[string][]ast.Expr{}, hidden: map[string]bool{},
		shape: map[string]ast.Expr{},
	}
	var leadOrder []string
	for _, s := range lead {
		gen := s.(*ast.DeclStmt).Decl.(*ast.GenDecl)
		if gen.Tok != token.VAR {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, n := range vs.Names {
				lv := &leadVar{index: len(leadOrder)}
				if len(vs.Values) == len(vs.Names) {
					lv.init = vs.Values[i]
				}
				a.lead[n.Name] = lv
				leadOrder = append(leadOrder, n.Name)
			}
		}
	}
	for _, p := range fd.Type.Params.List {
		for _, n := range p.Names {
			if n.Name != c.rank {
				a.params[n.Name] = true
			}
		}
	}
	a.collect(fd)

	sites := a.sites(fd.Body.List)
	if len(sites) == 0 {
		return nil, nil
	}
	a.candidates(leadOrder)

	dead = map[string]bool{}
	for _, v := range leadOrder {
		if _, ok := a.shape[v]; !ok {
			continue
		}
		deadAt := 0
		for _, s := range sites {
			if a.fromSite(s, v) != reads {
				deadAt++
			}
		}
		switch deadAt {
		case len(sites):
			dead[v] = true
		case 0:
		default:
			mixed = append(mixed, v)
		}
	}
	return dead, mixed
}

// hasBranches reports whether a body outside its closures holds a label or
// a branch statement, whose paths the analysis does not follow.
func hasBranches(body *ast.BlockStmt) bool {
	found := false
	inspectSkippingClosures(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BranchStmt, *ast.LabeledStmt:
			found = true
		}
		return !found
	})
	return found
}

// collect records every declaration and every later write of each name in
// fd, and the names its closures, defers and go statements mention.
func (a *liveness) collect(fd *ast.FuncDecl) {
	declare := func(fields ...*ast.FieldList) {
		for _, fl := range fields {
			if fl == nil {
				continue
			}
			for _, f := range fl.List {
				for _, n := range f.Names {
					a.declared[n.Name]++
				}
			}
		}
	}
	declare(fd.Type.Params, fd.Type.Results)
	hide := func(id *ast.Ident) { a.hidden[id.Name] = true }
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			declare(n.Type.Params, n.Type.Results)
			eachIdent(n, hide)
		case *ast.DeferStmt:
			eachIdent(n, hide)
		case *ast.GoStmt:
			eachIdent(n, hide)
		case *ast.ValueSpec:
			for _, id := range n.Names {
				a.declared[id.Name]++
			}
		case *ast.TypeSpec:
			a.declared[n.Name.Name]++
		}
		return true
	})
	eachWrite(fd.Body, func(id *ast.Ident, src ast.Expr, define bool) {
		if define {
			a.declared[id.Name]++
		} else {
			a.writes[id.Name] = append(a.writes[id.Name], src)
		}
	})
}

// eachIdent calls fn for every identifier in n but a selector's field.
func eachIdent(n ast.Node, fn func(*ast.Ident)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			eachIdent(n.X, fn)
			return false
		case *ast.Ident:
			fn(n)
		}
		return true
	})
}

// mentions reports whether n names v (a selector's field aside).
func mentions(n ast.Node, v string) bool {
	found := false
	eachIdent(n, func(id *ast.Ident) { found = found || id.Name == v })
	return found
}

// eachWrite calls fn for every variable n stores to as a whole, or
// declares with :=: the targets of assignments (with the source of a plain
// one-to-one =, nil for any other), of ++ and --, of range clauses, and the
// operands of &.
func eachWrite(n ast.Node, fn func(id *ast.Ident, src ast.Expr, define bool)) {
	target := func(e, src ast.Expr, define bool) {
		if id, ok := e.(*ast.Ident); ok {
			fn(id, src, define)
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				var src ast.Expr
				if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
					src = n.Rhs[i]
				}
				target(l, src, n.Tok == token.DEFINE)
			}
		case *ast.RangeStmt:
			target(n.Key, nil, n.Tok == token.DEFINE)
			target(n.Value, nil, n.Tok == token.DEFINE)
		case *ast.IncDecStmt:
			target(n.X, nil, false)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X, nil, false)
			}
		}
		return true
	})
}

// candidates fills a.shape with the leading variables whose declaration
// allocates them and whose length no later statement changes.
func (a *liveness) candidates(order []string) {
	for _, v := range order {
		lv := a.lead[v]
		if v == "_" || a.declared[v] != 1 || a.hidden[v] || lv.init == nil {
			continue
		}
		if n, ok := madeSlice(lv.init); ok && a.atEntry(n, lv.index) {
			a.shape[v] = n
		}
	}
	// A write keeps a candidate's length only when it stores another
	// candidate of the same length; drop the rest until nothing changes.
	for changed := true; changed; {
		changed = false
		for v, n := range a.shape {
			for _, src := range a.writes[v] {
				w, ok := src.(*ast.Ident)
				if !ok || a.shape[w.Name] == nil || types.ExprString(a.shape[w.Name]) != types.ExprString(n) {
					delete(a.shape, v)
					changed = true
					break
				}
			}
		}
	}
}

// madeSlice matches make([]T, n) for a T whose slices the checkpoint lays
// out, and returns n.
func madeSlice(e ast.Expr) (ast.Expr, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || !isIdent(call.Fun, "make") {
		return nil, false
	}
	if !deadElems[elemType(call.Args[0])] {
		return nil, false
	}
	return call.Args[1], true
}

// deadElems are the element types of the slices the analysis may leave out:
// the scalars whose slices the checkpoint lays out.
var deadElems = map[string]bool{"byte": true, "float64": true, "int": true, "int64": true}

// poisonValue is what the oracle's generation fills a dead []elem of file
// with on the restart path: NaN for floats, 0xA5 in every byte for
// integers.
func poisonValue(file *ast.File, elem string) ast.Expr {
	lit := func(v string) ast.Expr { return &ast.BasicLit{Kind: token.INT, Value: v} }
	switch elem {
	case "float64":
		return &ast.CallExpr{Fun: &ast.SelectorExpr{X: ast.NewIdent(importName(file, "math")), Sel: ast.NewIdent("NaN")}}
	case "byte":
		return lit("0xA5")
	case "int":
		return lit("-0x5A5A5A5B") // 0xA5A5A5A5 in 32 bits, sign-extended in 64
	default:
		return lit("-0x5A5A5A5A5A5A5A5B")
	}
}

// elemType returns the element type name of a []T type expression.
func elemType(typ ast.Expr) string {
	at, ok := typ.(*ast.ArrayType)
	if !ok || at.Len != nil {
		return ""
	}
	id, ok := at.Elt.(*ast.Ident)
	if !ok {
		return ""
	}
	return id.Name
}

// atEntry reports whether e has the same value each time the leading var
// group runs: built from literals, parameters, the rank's Rank() and Size()
// and leading variables (declared before position before) whose
// initializers are built the same way.
func (a *liveness) atEntry(e ast.Expr, before int) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		if a.params[e.Name] {
			return a.declared[e.Name] == 1
		}
		lv := a.lead[e.Name]
		return lv != nil && lv.index < before && lv.init != nil && a.declared[e.Name] == 1 && a.atEntry(lv.init, lv.index)
	case *ast.ParenExpr:
		return a.atEntry(e.X, before)
	case *ast.UnaryExpr:
		return e.Op != token.AND && a.atEntry(e.X, before)
	case *ast.BinaryExpr:
		return a.atEntry(e.X, before) && a.atEntry(e.Y, before)
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		return ok && len(e.Args) == 0 && isIdent(sel.X, a.c.rank) &&
			(sel.Sel.Name == "Rank" || sel.Sel.Name == "Size")
	}
	return false
}

// stable reports whether e's value never changes after the leading var
// group: literals, and parameters and leading variables declared once and
// never assigned again.
func (a *liveness) stable(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return (a.params[e.Name] || a.lead[e.Name] != nil) && a.declared[e.Name] == 1 && len(a.writes[e.Name]) == 0
	case *ast.ParenExpr:
		return a.stable(e.X)
	case *ast.BinaryExpr:
		return a.stable(e.X) && a.stable(e.Y)
	}
	return false
}

// sites lists the checkpoint sites of a body with their enclosing lists.
func (a *liveness) sites(body []ast.Stmt) []site {
	var out []site
	var walk func(list []ast.Stmt, owner ast.Stmt, outer []frame)
	walk = func(list []ast.Stmt, owner ast.Stmt, outer []frame) {
		for i, s := range list {
			frames := append(append([]frame(nil), outer...), frame{list, i, owner})
			switch s := s.(type) {
			case *ast.ExprStmt:
				if isPotentialCheckpoint(s.X, a.c.rank) {
					out = append(out, site{frames: frames})
				} else if call, ok := s.X.(*ast.CallExpr); ok && a.c.isCheckpointableCall(call) {
					out = append(out, site{frames: frames, call: true})
				}
			case *ast.AssignStmt:
				if len(s.Rhs) == 1 {
					if call, ok := s.Rhs[0].(*ast.CallExpr); ok && a.c.isCheckpointableCall(call) {
						out = append(out, site{frames: frames, call: true})
					}
				}
			case *ast.ForStmt:
				walk(s.Body.List, s, frames)
			case *ast.BlockStmt:
				walk(s.List, s, frames)
			case *ast.IfStmt:
				walk(s.Body.List, s, frames)
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					walk(e.List, s, frames)
				case *ast.IfStmt:
					walk([]ast.Stmt{e}, s, frames)
				}
			}
		}
	}
	walk(body, nil, nil)
	return out
}

// fromSite is the effect on v of everything a resumed execution runs after
// site s: the rest of each enclosing list, and each enclosing loop's post
// statement and further iterations on the way out.
func (a *liveness) fromSite(s site, v string) effect {
	for k := len(s.frames) - 1; k >= 0; k-- {
		f := s.frames[k]
		from := f.index + 1
		if k == len(s.frames)-1 && s.call {
			from = f.index
		}
		if e := a.seq(f.list[from:], v); e != passes {
			return e
		}
		if loop, ok := f.owner.(*ast.ForStmt); ok {
			if e := a.stmt(loop.Post, v); e != passes {
				return e
			}
			again := &ast.ForStmt{Cond: loop.Cond, Post: loop.Post, Body: loop.Body}
			if e := a.stmt(again, v); e != passes {
				return e
			}
		}
	}
	return passes
}

func (a *liveness) seq(list []ast.Stmt, v string) effect {
	for _, s := range list {
		if e := a.stmt(s, v); e != passes {
			return e
		}
	}
	return passes
}

func (a *liveness) stmt(s ast.Stmt, v string) effect {
	if s == nil {
		return passes
	}
	if r, ok := s.(*ast.ReturnStmt); ok {
		if mentions(r, v) {
			return reads
		}
		return kills
	}
	if !mentions(s, v) {
		return passes
	}
	switch s := s.(type) {
	case *ast.AssignStmt:
		return assignEffect(s, v)
	case *ast.BlockStmt:
		return a.seq(s.List, v)
	case *ast.IfStmt:
		if mentions(s.Init, v) || mentions(s.Cond, v) {
			return reads
		}
		return join(a.seq(s.Body.List, v), a.stmt(s.Else, v))
	case *ast.ForStmt:
		if a.fullWrite(s, v) {
			return kills
		}
		if mentions(s.Init, v) || mentions(s.Cond, v) || mentions(s.Post, v) || a.seq(s.Body.List, v) == reads {
			return reads
		}
		return passes
	case *ast.RangeStmt:
		if a.fullWrite(s, v) {
			return kills
		}
	}
	return reads
}

// assignEffect: Go evaluates the right-hand sides and the left-hand sides'
// operands before it stores, so any of them naming v reads it; a store to
// an element is a partial write, a store to v itself a whole one.
func assignEffect(s *ast.AssignStmt, v string) effect {
	if s.Tok != token.ASSIGN {
		return reads
	}
	for _, r := range s.Rhs {
		if mentions(r, v) {
			return reads
		}
	}
	whole := false
	for _, l := range s.Lhs {
		if isIdent(l, v) {
			whole = true
		} else if ix, ok := l.(*ast.IndexExpr); ok && isIdent(ix.X, v) {
			if mentions(ix.Index, v) {
				return reads
			}
		} else if mentions(l, v) {
			return reads
		}
	}
	if whole {
		return kills
	}
	return passes
}

// fullWrite reports whether loop is one of the three forms that store every
// element of v and read none of it.
func (a *liveness) fullWrite(loop ast.Stmt, v string) bool {
	switch loop := loop.(type) {
	case *ast.RangeStmt:
		i, ok := loop.Key.(*ast.Ident)
		if !ok || loop.Tok != token.DEFINE || loop.Value != nil || !isIdent(loop.X, v) {
			return false
		}
		return a.storesEvery(loop.Body, v, func(ix ast.Expr) bool { return isIdent(ix, i.Name) }, i.Name)
	case *ast.ForStmt:
		i, bound, ok := countingLoop(loop)
		shape := a.shape[v]
		if !ok || shape == nil || !a.stable(bound) {
			return false
		}
		if types.ExprString(bound) == types.ExprString(shape) {
			return a.storesEvery(loop.Body, v, func(ix ast.Expr) bool { return isIdent(ix, i) }, i)
		}
		rows, ok := shape.(*ast.BinaryExpr)
		if !ok || rows.Op != token.MUL || types.ExprString(rows.X) != types.ExprString(bound) || !a.stable(rows.Y) {
			return false
		}
		return a.coversRows(loop.Body, v, i, rows.Y)
	}
	return false
}

// countingLoop matches for i := 0; i < bound; i++ and returns i and bound.
func countingLoop(loop *ast.ForStmt) (string, ast.Expr, bool) {
	init, ok := loop.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return "", nil, false
	}
	i, ok := init.Lhs[0].(*ast.Ident)
	if zero, isLit := init.Rhs[0].(*ast.BasicLit); !ok || !isLit || zero.Value != "0" {
		return "", nil, false
	}
	cond, ok := loop.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS || !isIdent(cond.X, i.Name) {
		return "", nil, false
	}
	post, ok := loop.Post.(*ast.IncDecStmt)
	if !ok || post.Tok != token.INC || !isIdent(post.X, i.Name) {
		return "", nil, false
	}
	return i.Name, cond.Y, true
}

// storesEvery reports whether every path through body stores an element of
// v whose index idx accepts, body mentions v only as such stores' targets,
// returns nowhere and assigns none of the loop variables.
func (a *liveness) storesEvery(body *ast.BlockStmt, v string, idx func(ast.Expr) bool, loopVars ...string) bool {
	if !a.confined(body, v, loopVars) {
		return false
	}
	return everyPath(body.List, func(s ast.Stmt) bool {
		as, ok := s.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return false
		}
		for _, l := range as.Lhs {
			if ix, ok := l.(*ast.IndexExpr); ok && isIdent(ix.X, v) && idx(ix.Index) {
				return true
			}
		}
		return false
	})
}

// coversRows reports whether every path through an outer loop's body runs
// an inner loop over the columns that stores v[row*cols+col] on every path.
func (a *liveness) coversRows(body *ast.BlockStmt, v, row string, cols ast.Expr) bool {
	if !a.confined(body, v, []string{row}) {
		return false
	}
	return everyPath(body.List, func(s ast.Stmt) bool {
		loop, ok := s.(*ast.ForStmt)
		if !ok {
			return false
		}
		col, bound, ok := countingLoop(loop)
		if !ok || types.ExprString(bound) != types.ExprString(cols) {
			return false
		}
		return a.storesEvery(loop.Body, v, func(ix ast.Expr) bool {
			sum, ok := ix.(*ast.BinaryExpr)
			if !ok || sum.Op != token.ADD || !isIdent(sum.Y, col) {
				return false
			}
			mul, ok := sum.X.(*ast.BinaryExpr)
			return ok && mul.Op == token.MUL && isIdent(mul.X, row) &&
				types.ExprString(mul.Y) == types.ExprString(cols)
		}, row, col)
	})
}

// confined reports whether body returns nowhere, assigns none of vars and
// names v only as the target of an element store whose index does not name
// it.
func (a *liveness) confined(body *ast.BlockStmt, v string, vars []string) bool {
	ok := true
	eachWrite(body, func(id *ast.Ident, _ ast.Expr, _ bool) {
		ok = ok && !slices.Contains(vars, id.Name)
	})
	stores := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			ok = false
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if ix, isIx := l.(*ast.IndexExpr); isIx && n.Tok == token.ASSIGN && isIdent(ix.X, v) && !mentions(ix.Index, v) {
					stores[ix.X.(*ast.Ident)] = true
				}
			}
		}
		return true
	})
	eachIdent(body, func(id *ast.Ident) {
		ok = ok && (id.Name != v || stores[id])
	})
	return ok
}

// everyPath reports whether every path through list runs a statement that
// hit accepts, looking through blocks and if/else.
func everyPath(list []ast.Stmt, hit func(ast.Stmt) bool) bool {
	for _, s := range list {
		if hit(s) {
			return true
		}
		switch s := s.(type) {
		case *ast.BlockStmt:
			if everyPath(s.List, hit) {
				return true
			}
		case *ast.IfStmt:
			if s.Else != nil && everyPath(s.Body.List, hit) && everyPath([]ast.Stmt{s.Else}, hit) {
				return true
			}
		}
	}
	return false
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
