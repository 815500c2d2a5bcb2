// Package precompiler implements the CCIFT source-to-source transformation
// of Section 5.1 (Figures 6 and 7) for Go programs written against the
// engine.Rank API.
//
// The programmer's only obligation — exactly as in the paper — is to insert
// calls to PotentialCheckpoint at the points where checkpoints may be
// taken. The precompiler then instruments every function that can reach a
// checkpoint:
//
//   - Position Stack (Figure 6): a label is pushed before each
//     checkpointable call and popped after it; a resume dispatch at the top
//     of each function jumps to the saved label after a restart, rebuilding
//     the activation stack.
//
//   - Variable Descriptor Stack (Figure 7): every parameter and leading
//     variable declaration is registered so that checkpoints save, and
//     restarts restore, its value.
//
//   - Write intent: the runtime's default incremental freeze re-copies only
//     the variables touched since the last checkpoint. The programmer writes
//     no Touch, so the precompiler emits one before each Position Stack push,
//     naming every registered variable of the function not declared with a
//     scalar type (scalars are always re-copied). Every checkpoint the
//     function reaches, directly or through a call, then sees its writes.
//
// C's goto can jump anywhere; Go's cannot jump into a block. The dispatch
// therefore cascades: the function-level dispatch jumps either directly to
// a top-level resume label or to the enclosing for/if/block statement of a
// nested one, that statement re-executes (its conditions are deterministic
// once the VDS has restored every variable), and a nested dispatch at the
// top of its body routes deeper until the site is reached.
//
// Like the paper's precompiler, which "needs to decompose certain complex
// statements", this one accepts a restricted source form and reports
// anything outside it as an error with a decomposition hint:
//
//   - checkpointable calls must be statements (or the sole RHS of an
//     assignment to existing variables), not subexpressions;
//   - loops containing checkpointable calls must not have an init clause
//     (declare the loop variable in the function's leading var group) and
//     must not be range loops;
//   - inside any block containing checkpointable calls, variable
//     declarations must come after the last such call of that block;
//     function-level declarations belong to the leading var group;
//   - switch/select bodies must not contain checkpointable calls.
package precompiler

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"strconv"
)

// Names of the identifiers the transformation emits.
const (
	// targetVar is the per-function resume routing variable.
	targetVar = "ccift_target"
	// labelPrefix prefixes resume labels at checkpointable sites.
	labelPrefix = "ccift_l"
	// containerPrefix prefixes labels on statements that contain nested
	// resume sites.
	containerPrefix = "ccift_c"
)

// rankTypeNames are the type names recognized as the protocol runtime
// handle when they appear as a pointer parameter.
var rankTypeNames = map[string]bool{"Rank": true}

// Error is a transformation error with a source position.
type Error struct {
	Pos token.Position
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// File is one source file given to the precompiler.
type File struct {
	Name string
	Src  []byte
}

// Transform instruments all checkpointable functions across the given
// files of one package and returns the rewritten sources in input order.
// Files without checkpointable functions are returned formatted but
// otherwise untouched.
func Transform(files []File) ([][]byte, error) {
	fset := token.NewFileSet()
	parsed := make([]*ast.File, len(files))
	for i, f := range files {
		af, err := parser.ParseFile(fset, f.Name, f.Src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed[i] = af
	}

	funcs := map[string]*funcInfo{}
	var order []string
	for _, af := range parsed {
		for _, d := range af.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			fi := &funcInfo{decl: fd, rank: rankParam(fd)}
			funcs[fd.Name.Name] = fi
			order = append(order, fd.Name.Name)
		}
	}
	markCheckpointable(funcs)

	tr := &transformer{fset: fset, funcs: funcs}
	if err := tr.checkClosures(funcs); err != nil {
		return nil, err
	}
	for _, name := range order {
		fi := funcs[name]
		if !fi.checkpointable {
			continue
		}
		if fi.rank == "" {
			return nil, tr.errf(fi.decl.Pos(),
				"function %s can reach PotentialCheckpoint but has no *Rank parameter to carry the runtime", name)
		}
		if err := tr.instrumentFunc(fi); err != nil {
			return nil, err
		}
	}

	out := make([][]byte, len(parsed))
	for i, af := range parsed {
		var buf bytes.Buffer
		if err := format.Node(&buf, fset, af); err != nil {
			return nil, fmt.Errorf("precompiler: format %s: %w", files[i].Name, err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

type funcInfo struct {
	decl           *ast.FuncDecl
	rank           string // name of the *Rank parameter, "" if none
	checkpointable bool
}

// rankParam returns the name of the first parameter whose type is a
// pointer to a recognized Rank type.
func rankParam(fd *ast.FuncDecl) string {
	for _, field := range fd.Type.Params.List {
		star, ok := field.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		var typeName string
		switch t := star.X.(type) {
		case *ast.Ident:
			typeName = t.Name
		case *ast.SelectorExpr:
			typeName = t.Sel.Name
		}
		if rankTypeNames[typeName] && len(field.Names) > 0 {
			return field.Names[0].Name
		}
	}
	return ""
}

// markCheckpointable computes the fixed point: a function is checkpointable
// if it calls PotentialCheckpoint on its rank parameter, or calls another
// checkpointable function of the same package.
//
// Function literals are opaque: a closure is never instrumented and its
// calls do not make the enclosing function checkpointable. This permits the
// standard entry-point trampoline — func(r *Rank) (any, error) { return
// worker(r, n), nil } — whose re-execution from the top is trivially
// correct. A closure that calls PotentialCheckpoint directly is rejected,
// since nothing could ever resume it.
func markCheckpointable(funcs map[string]*funcInfo) {
	for _, fi := range funcs {
		if fi.rank == "" {
			continue
		}
		inspectSkippingClosures(fi.decl.Body, func(n ast.Node) bool {
			if isPotentialCheckpoint(n, fi.rank) {
				fi.checkpointable = true
				return false
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			if fi.checkpointable {
				continue
			}
			inspectSkippingClosures(fi.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok {
					if callee, ok := funcs[id.Name]; ok && callee.checkpointable {
						fi.checkpointable = true
						changed = true
						return false
					}
				}
				return true
			})
		}
	}
}

// inspectSkippingClosures is ast.Inspect minus descent into function
// literals, whose bodies run in their own (uninstrumented) frames.
func inspectSkippingClosures(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

func isPotentialCheckpoint(n ast.Node, rank string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "PotentialCheckpoint" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == rank
}

type transformer struct {
	fset  *token.FileSet
	funcs map[string]*funcInfo
}

func (t *transformer) errf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: t.fset.Position(pos), Msg: fmt.Sprintf(format, args...)}
}

// funcCtx carries per-function instrumentation state.
type funcCtx struct {
	t             *transformer
	name          string
	rank          string
	nextLabel     int
	nextContainer int
	// touch names the registered variables emitted before every push.
	touch []string
}

// labelRef describes one resume label discovered in (or below) a block.
type labelRef struct {
	label int // PS label number
	// target is the label name the *enclosing* dispatch jumps to: the site
	// label itself when the site is at this level, or the container label
	// of the statement holding it.
	target string
	// direct reports whether target is the site's own label (so the
	// dispatch must clear the routing variable before jumping).
	direct bool
}

func (c *funcCtx) siteLabel() (int, string) {
	c.nextLabel++
	return c.nextLabel, labelPrefix + strconv.Itoa(c.nextLabel)
}

func (c *funcCtx) containerLabel() string {
	c.nextContainer++
	return containerPrefix + strconv.Itoa(c.nextContainer)
}

// instrumentFunc rewrites one checkpointable function in place.
func (t *transformer) instrumentFunc(fi *funcInfo) error {
	c := &funcCtx{t: t, name: fi.decl.Name.Name, rank: fi.rank}
	body := fi.decl.Body
	// The registered variables: the non-rank parameters, then the leading
	// var group (see below). Sites are instrumented after this, so each
	// push can name the non-scalar ones.
	type variable struct {
		name string
		typ  ast.Expr
	}
	var vars []variable
	for _, p := range fi.decl.Type.Params.List {
		for _, n := range p.Names {
			if n.Name != fi.rank && n.Name != "_" {
				vars = append(vars, variable{n.Name, p.Type})
			}
		}
	}

	// Leading declaration group of the function body: these (plus the
	// non-rank parameters) become VDS registrations, and the resume
	// dispatch is inserted after them so no goto crosses a declaration.
	lead := 0
	for lead < len(body.List) {
		if _, ok := body.List[lead].(*ast.DeclStmt); ok {
			lead++
			continue
		}
		break
	}
	for _, s := range body.List[:lead] {
		gen := s.(*ast.DeclStmt).Decl.(*ast.GenDecl)
		if gen.Tok != token.VAR {
			continue
		}
		for _, spec := range gen.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, n := range vs.Names {
					if n.Name != "_" {
						vars = append(vars, variable{n.Name, vs.Type})
					}
				}
			}
		}
	}
	for _, v := range vars {
		if !scalarType(v.typ) {
			c.touch = append(c.touch, c.name+"."+v.name)
		}
	}

	rest, refs, err := c.instrumentStmts(body.List[lead:])
	if err != nil {
		return err
	}
	if len(refs) == 0 {
		// Checkpointable only through dead code paths; nothing to do.
		return nil
	}

	var out []ast.Stmt
	out = append(out, body.List[:lead]...)

	// Figure 7: register parameters and leading variables. The deferred
	// unregistrations pop in LIFO order, mirroring scope exit.
	for _, v := range vars {
		out = append(out, c.registerStmt(v.name), c.unregisterStmt())
	}

	// Figure 6: the resume dispatch. if restart, goto PS.item(i++).
	out = append(out, &ast.DeclStmt{Decl: &ast.GenDecl{
		Tok: token.VAR,
		Specs: []ast.Spec{&ast.ValueSpec{
			Names: []*ast.Ident{ast.NewIdent(targetVar)},
			Type:  ast.NewIdent("int"),
		}},
	}})
	out = append(out, &ast.IfStmt{
		Cond: c.psCall("Resuming"),
		Body: &ast.BlockStmt{List: []ast.Stmt{
			&ast.AssignStmt{
				Lhs: []ast.Expr{ast.NewIdent(targetVar)},
				Tok: token.ASSIGN,
				Rhs: []ast.Expr{c.psCall("Resume")},
			},
		}},
	})
	out = append(out, c.dispatch(refs))
	out = append(out, rest...)
	body.List = out
	return nil
}

// dispatch builds the switch that routes a resuming execution to its label.
func (c *funcCtx) dispatch(refs []labelRef) ast.Stmt {
	// Group refs by target label, preserving first-appearance order.
	type group struct {
		target string
		direct bool
		labels []int
	}
	var groups []*group
	byTarget := map[string]*group{}
	for _, r := range refs {
		g, ok := byTarget[r.target]
		if !ok {
			g = &group{target: r.target, direct: r.direct}
			byTarget[r.target] = g
			groups = append(groups, g)
		}
		g.labels = append(g.labels, r.label)
	}

	var cases []ast.Stmt
	for _, g := range groups {
		var exprs []ast.Expr
		for _, l := range g.labels {
			exprs = append(exprs, intLit(l))
		}
		var body []ast.Stmt
		if g.direct {
			// Routing ends here: clear the target before jumping so loop
			// bodies do not re-dispatch on later iterations.
			body = append(body, &ast.AssignStmt{
				Lhs: []ast.Expr{ast.NewIdent(targetVar)},
				Tok: token.ASSIGN,
				Rhs: []ast.Expr{intLit(0)},
			})
		}
		body = append(body, &ast.BranchStmt{Tok: token.GOTO, Label: ast.NewIdent(g.target)})
		cases = append(cases, &ast.CaseClause{List: exprs, Body: body})
	}
	return &ast.SwitchStmt{
		Tag:  ast.NewIdent(targetVar),
		Body: &ast.BlockStmt{List: cases},
	}
}

// instrumentStmts rewrites a statement list. At the function level the
// caller has already split off the leading var group, so the
// declaration-placement rule applies uniformly: any declaration between
// this block's dispatch point and its last resume label is an error.
func (c *funcCtx) instrumentStmts(stmts []ast.Stmt) ([]ast.Stmt, []labelRef, error) {
	var out []ast.Stmt
	var refs []labelRef
	lastLabelIdx := -1 // index in out of the last emitted label

	for _, s := range stmts {
		produced, sRefs, err := c.instrumentStmt(s)
		if err != nil {
			return nil, nil, err
		}
		if len(sRefs) > 0 {
			refs = append(refs, sRefs...)
			lastLabelIdx = len(out) + len(produced) - 1
		}
		out = append(out, produced...)
	}

	// Declaration-placement rule: no declaration may sit between the
	// dispatch point and the last resume label of this block, or a goto
	// would illegally jump over it.
	if len(refs) > 0 {
		for i, s := range out {
			if i >= lastLabelIdx {
				break
			}
			if isDecl(s) {
				return nil, nil, c.t.errf(declPos(s),
					"%s: declaration precedes a resume label in the same block; move it to the function's leading var group (the paper's statement decomposition)", c.name)
			}
		}
	}
	return out, refs, nil
}

func isDecl(s ast.Stmt) bool {
	switch d := s.(type) {
	case *ast.DeclStmt:
		return true
	case *ast.AssignStmt:
		return d.Tok == token.DEFINE
	}
	return false
}

func declPos(s ast.Stmt) token.Pos {
	return s.Pos()
}

// instrumentStmt rewrites one statement, returning its replacement
// statements and any resume labels it contributes to the enclosing block.
func (c *funcCtx) instrumentStmt(s ast.Stmt) ([]ast.Stmt, []labelRef, error) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if isPotentialCheckpoint(st.X, c.rank) {
			return c.wrapCheckpointSite(st)
		}
		if call, ok := st.X.(*ast.CallExpr); ok && c.isCheckpointableCall(call) {
			return c.wrapCallSite(st)
		}
		return c.requireNoNestedSites(s)

	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			if call, ok := st.Rhs[0].(*ast.CallExpr); ok && c.isCheckpointableCall(call) {
				if st.Tok == token.DEFINE {
					return nil, nil, c.t.errf(st.Pos(),
						"%s: checkpointable call in a short variable declaration; declare the variable first and assign (statement decomposition)", c.name)
				}
				return c.wrapCallSite(st)
			}
		}
		return c.requireNoNestedSites(s)

	case *ast.ForStmt:
		newBody, refs, err := c.instrumentBlock(st.Body)
		if err != nil {
			return nil, nil, err
		}
		if len(refs) == 0 {
			return []ast.Stmt{s}, nil, nil
		}
		if st.Init != nil {
			return nil, nil, c.t.errf(st.Pos(),
				"%s: loop containing checkpointable calls must not have an init clause; declare the loop variable in the leading var group so its restored value survives re-entry", c.name)
		}
		st.Body = newBody
		return c.wrapContainer(st, refs)

	case *ast.RangeStmt:
		if c.hasNestedSites(st.Body) {
			return nil, nil, c.t.errf(st.Pos(),
				"%s: range loop contains checkpointable calls; rewrite as an index loop over a leading-group variable", c.name)
		}
		return []ast.Stmt{s}, nil, nil

	case *ast.IfStmt:
		newBody, refs, err := c.instrumentBlock(st.Body)
		if err != nil {
			return nil, nil, err
		}
		st.Body = newBody
		if st.Else != nil {
			switch e := st.Else.(type) {
			case *ast.BlockStmt:
				newElse, elseRefs, err := c.instrumentBlock(e)
				if err != nil {
					return nil, nil, err
				}
				st.Else = newElse
				refs = append(refs, elseRefs...)
			case *ast.IfStmt:
				produced, elseRefs, err := c.instrumentStmt(e)
				if err != nil {
					return nil, nil, err
				}
				// An else-if with sites would need its own container label,
				// which Go's syntax cannot attach; require decomposition.
				if len(elseRefs) > 0 {
					return nil, nil, c.t.errf(e.Pos(),
						"%s: else-if branch contains checkpointable calls; rewrite as a nested if inside an else block", c.name)
				}
				st.Else = produced[0]
			}
		}
		if st.Init != nil && len(refs) > 0 {
			return nil, nil, c.t.errf(st.Pos(),
				"%s: if with init clause contains checkpointable calls; hoist the init (statement decomposition)", c.name)
		}
		if len(refs) == 0 {
			return []ast.Stmt{st}, nil, nil
		}
		return c.wrapContainer(st, refs)

	case *ast.BlockStmt:
		newBlock, refs, err := c.instrumentBlock(st)
		if err != nil {
			return nil, nil, err
		}
		if len(refs) == 0 {
			return []ast.Stmt{st}, nil, nil
		}
		return c.wrapContainer(newBlock, refs)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		if c.hasNestedSites(s) {
			return nil, nil, c.t.errf(s.Pos(),
				"%s: switch/select contains checkpointable calls; rewrite as if/else (statement decomposition)", c.name)
		}
		return []ast.Stmt{s}, nil, nil

	default:
		return c.requireNoNestedSites(s)
	}
}

// instrumentBlock rewrites a nested block and, when it contains resume
// labels, prepends the block-level dispatch.
func (c *funcCtx) instrumentBlock(b *ast.BlockStmt) (*ast.BlockStmt, []labelRef, error) {
	newList, refs, err := c.instrumentStmts(b.List)
	if err != nil {
		return nil, nil, err
	}
	if len(refs) > 0 {
		newList = append([]ast.Stmt{c.dispatch(refs)}, newList...)
	}
	return &ast.BlockStmt{List: newList}, refs, nil
}

// wrapContainer labels a statement that holds nested sites and re-targets
// the nested refs at the container label for the enclosing dispatch.
func (c *funcCtx) wrapContainer(s ast.Stmt, refs []labelRef) ([]ast.Stmt, []labelRef, error) {
	name := c.containerLabel()
	outRefs := make([]labelRef, len(refs))
	for i, r := range refs {
		outRefs[i] = labelRef{label: r.label, target: name, direct: false}
	}
	return []ast.Stmt{&ast.LabeledStmt{Label: ast.NewIdent(name), Stmt: s}}, outRefs, nil
}

// wrapCheckpointSite emits Figure 6's checkpoint-site form: the label sits
// after the call, so a resumed execution continues immediately past it.
//
//	PS.push(n)
//	potentialCheckpoint()
//	ccift_ln:
//	PS.pop()
func (c *funcCtx) wrapCheckpointSite(st *ast.ExprStmt) ([]ast.Stmt, []labelRef, error) {
	n, name := c.siteLabel()
	stmts := append(c.pushStmts(n),
		st,
		&ast.LabeledStmt{Label: ast.NewIdent(name), Stmt: c.psStmt("Pop")},
	)
	return stmts, []labelRef{{label: n, target: name, direct: true}}, nil
}

// wrapCallSite emits Figure 6's call-site form: the label sits on the call,
// so a resumed execution re-enters the callee, which resumes deeper.
//
//	PS.push(n)
//	ccift_ln:
//	function2()
//	PS.pop()
func (c *funcCtx) wrapCallSite(call ast.Stmt) ([]ast.Stmt, []labelRef, error) {
	n, name := c.siteLabel()
	stmts := append(c.pushStmts(n),
		&ast.LabeledStmt{Label: ast.NewIdent(name), Stmt: call},
		c.psStmt("Pop"),
	)
	return stmts, []labelRef{{label: n, target: name, direct: true}}, nil
}

// pushStmts builds a site's push, preceded by the write intent on the
// function's non-scalar variables when it has any:
//
//	r.Touch("fn.grid", ...)
//	PS.push(n)
func (c *funcCtx) pushStmts(n int) []ast.Stmt {
	push := c.psStmt("Push", intLit(n))
	if len(c.touch) == 0 {
		return []ast.Stmt{push}
	}
	var names []ast.Expr
	for _, v := range c.touch {
		names = append(names, &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(v)})
	}
	touch := &ast.ExprStmt{X: &ast.CallExpr{
		Fun:  &ast.SelectorExpr{X: ast.NewIdent(c.rank), Sel: ast.NewIdent("Touch")},
		Args: names,
	}}
	return []ast.Stmt{touch, push}
}

// scalarType reports whether a declared type is one the runtime re-copies
// at every freeze without a Touch (ckpt's scalar kinds). A variable
// declared without a type is not known to be one.
func scalarType(typ ast.Expr) bool {
	id, ok := typ.(*ast.Ident)
	if !ok {
		return false
	}
	switch id.Name {
	case "int", "int64", "uint64", "float64", "bool", "string":
		return true
	}
	return false
}

// requireNoNestedSites passes a statement through unchanged after checking
// that no checkpointable call hides inside it in a position the
// transformation cannot label.
func (c *funcCtx) requireNoNestedSites(s ast.Stmt) ([]ast.Stmt, []labelRef, error) {
	if c.hasNestedSites(s) {
		return nil, nil, c.t.errf(s.Pos(),
			"%s: checkpointable call in an unsupported position; decompose the statement so the call stands alone", c.name)
	}
	return []ast.Stmt{s}, nil, nil
}

func (c *funcCtx) hasNestedSites(root ast.Node) bool {
	found := false
	inspectSkippingClosures(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if isPotentialCheckpoint(n, c.rank) {
			found = true
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && c.isCheckpointableCall(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkClosures rejects function literals that call PotentialCheckpoint
// directly: a closure frame is never instrumented, so such a checkpoint
// could never be resumed.
func (t *transformer) checkClosures(funcs map[string]*funcInfo) error {
	for _, fi := range funcs {
		if fi.rank == "" {
			continue
		}
		var bad token.Pos
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if bad.IsValid() {
				return false
			}
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if isPotentialCheckpoint(m, fi.rank) {
					bad = m.(*ast.CallExpr).Pos()
					return false
				}
				return true
			})
			return false
		})
		if bad.IsValid() {
			return t.errf(bad, "PotentialCheckpoint inside a function literal can never be resumed; move it into a named function")
		}
	}
	return nil
}

func (c *funcCtx) isCheckpointableCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	fi, ok := c.t.funcs[id.Name]
	return ok && fi.checkpointable
}

// --- emitted-code constructors ---

// psCall builds r.PS().<method>().
func (c *funcCtx) psCall(method string, args ...ast.Expr) *ast.CallExpr {
	ps := &ast.CallExpr{Fun: &ast.SelectorExpr{X: ast.NewIdent(c.rank), Sel: ast.NewIdent("PS")}}
	return &ast.CallExpr{
		Fun:  &ast.SelectorExpr{X: ps, Sel: ast.NewIdent(method)},
		Args: args,
	}
}

func (c *funcCtx) psStmt(method string, args ...ast.Expr) ast.Stmt {
	return &ast.ExprStmt{X: c.psCall(method, args...)}
}

// registerStmt builds r.Register("fn.x", &x).
func (c *funcCtx) registerStmt(varName string) ast.Stmt {
	return &ast.ExprStmt{X: &ast.CallExpr{
		Fun: &ast.SelectorExpr{X: ast.NewIdent(c.rank), Sel: ast.NewIdent("Register")},
		Args: []ast.Expr{
			&ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(c.name + "." + varName)},
			&ast.UnaryExpr{Op: token.AND, X: ast.NewIdent(varName)},
		},
	}}
}

// unregisterStmt builds defer r.Unregister().
func (c *funcCtx) unregisterStmt() ast.Stmt {
	return &ast.DeferStmt{Call: &ast.CallExpr{
		Fun: &ast.SelectorExpr{X: ast.NewIdent(c.rank), Sel: ast.NewIdent("Unregister")},
	}}
}

func intLit(n int) ast.Expr {
	return &ast.BasicLit{Kind: token.INT, Value: strconv.Itoa(n)}
}
