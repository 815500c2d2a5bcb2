package ccift_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The architecture's rules, checked on the source: the one place they live.
// Each rule is a property a change established and a later one could
// quietly undo; as a test it fails wherever the suite runs, not only in CI.
// Each row of the table names the PR that established its rule and carries
// one deliberate violation its check must report, so a check that has gone
// blind fails as loudly as a broken rule. The benchmark module (bench/, its
// own go.mod) is outside every rule.

// tree is the module's Go source outside bench/ and testdata/, test files
// included, parsed and keyed by path.
type tree map[string]*ast.File

// parseDir parses the Go files directly in dir, test files included, keyed
// by path.
func parseDir(t *testing.T, dir string) tree {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := tree{}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		path := filepath.ToSlash(filepath.Join(dir, name))
		if files[path], err = parser.ParseFile(fset, path, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// parseTree parses the module's tree.
func parseTree(t *testing.T) tree {
	t.Helper()
	files := tree{}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir == "bench" || d.Name() == "testdata" || dir != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		maps.Copy(files, parseDir(t, dir))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// code returns the non-test files of tr directly in one of dirs ("." is the
// root package), or in the whole module when no dir is given.
func (tr tree) code(dirs ...string) tree {
	files := tree{}
	for path, f := range tr {
		if !strings.HasSuffix(path, "_test.go") && (len(dirs) == 0 || slices.Contains(dirs, filepath.Dir(path))) {
			files[path] = f
		}
	}
	return files
}

// funcsCalling returns "path: function" for every function declared in
// files whose body makes a call match accepts.
func funcsCalling(files map[string]*ast.File, match func(*ast.CallExpr) bool) (sites []string) {
	for path, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && match(call) {
					sites = append(sites, path+": "+fn.Name.Name)
				}
				return true
			})
		}
	}
	slices.Sort(sites)
	return sites
}

// declared returns the names a field or a var/const spec declares and the
// type it declares them with (nil when the spec leaves it to the values).
func declared(n ast.Node) ([]*ast.Ident, ast.Expr) {
	if f, ok := n.(*ast.Field); ok {
		return f.Names, f.Type
	}
	vs := n.(*ast.ValueSpec)
	return vs.Names, vs.Type
}

// collectiveName matches the exported methods that are collectives, in any
// spelling: the MPI name, then whatever suffix a form adds.
var collectiveName = regexp.MustCompile(`^(Barrier|Bcast|Reduce|Allreduce|Gather|Allgather|Alltoall|Scatter|Scan|Reducescatter|Sendrecv)`)

// collectiveSurface is every collective method of the three layers a
// message crosses. One form per collective — the one that fills a result
// the caller provides — plus what a caller outside the tree compiles
// against (bench/ times Comm.Allgather and Layer.Allgather) and engine's
// float64 front ends.
var collectiveSurface = map[[2]string][]string{
	{"internal/mpi", "Comm"}: {
		"Allgather", "AllgatherInto", "AllreduceInto", "AlltoallInto", "Barrier", "BcastInto",
		"GatherInto", "ReduceInto", "ReducescatterInto", "ScanInto", "ScatterInto",
	},
	{"internal/protocol", "Layer"}: {
		"Allgather", "AllgatherInto", "AllreduceInto", "AlltoallInto", "Barrier", "BcastInto",
		"GatherInto", "ReduceInto", "ReducescatterInto", "ScanInto", "ScatterInto", "Sendrecv",
	},
	{"internal/engine", "Rank"}: {
		"AllgatherF64Into", "AllgatherInto", "AllreduceF64", "AllreduceF64Into",
		"AllreduceInto", "AlltoallInto", "Barrier", "BcastInto", "GatherF64Into", "GatherInto",
		"ReduceInto", "ReducescatterInto", "ScanInto", "ScatterInto", "Sendrecv",
	},
}

// figure4Fields are the protocol variables of Figure 4 and the initiator's
// state: the fields of internal/protocol's machine.
var figure4Fields = map[string]bool{
	"epoch": true, "amLogging": true, "readySent": true, "nextMessageID": true,
	"checkpointRequested": true, "requestedEpoch": true, "sendCount": true, "earlyIDs": true,
	"currentReceiveCount": true, "previousReceiveCount": true, "totalSent": true,
	"init": true, "inProgress": true, "closed": true, "target": true, "ready": true,
	"stopped": true, "sincePrev": true, "logDone": true, "flushing": true, "stopSent": true,
	"finished": true, "suppress": true, "suppressPending": true,
}

// figure4Field returns the Figure 4 field an assignment's target writes
// (l.m.epoch, l.m.sendCount[q], l.m.init.ready), or "".
func figure4Field(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			if figure4Fields[x.Sel.Name] {
				return x.Sel.Name
			}
			e = x.X
		default:
			return ""
		}
	}
}

// exportsWithoutUsers lists "dir.Name" (or "dir.Type.Method") for every
// exported top-level identifier, and every exported method of an exported
// type, declared in internal/ that no non-test file outside its own file
// names. The match is by name: a method counts as used wherever a selector
// of its name appears, a function, variable or constant wherever another
// file of its package mentions it or another package selects it through an
// import. A type counts wherever it is named at all, its own file included:
// an exported signature that names it makes it part of that API. Methods of
// the types the root package re-exports are exempt: programs outside the
// module are their users.
func exportsWithoutUsers(files map[string]*ast.File) []string {
	type use struct{ pkg, name string }
	pkgName := map[string]string{} // import path → package name
	for path, f := range files {
		pkgName[pkgPath(path)] = f.Name.Name
	}
	// importsOf maps a file's local package names to import paths.
	importsOf := func(f *ast.File) map[string]string {
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			name := pkgName[ip]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		return imports
	}
	// typeOf resolves a type expression of a file to "import path.Name".
	typeOf := func(path string, imports map[string]string, typ ast.Expr) string {
		for {
			switch t := typ.(type) {
			case *ast.StarExpr:
				typ = t.X
			case *ast.IndexExpr:
				typ = t.X
			case *ast.Ident:
				return pkgPath(path) + "." + t.Name
			case *ast.SelectorExpr:
				if x, ok := t.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return imports[x.Name] + "." + t.Sel.Name
				}
				return ""
			default:
				return ""
			}
		}
	}
	used := map[use][]string{}  // (package, name), or ("", selector) → files naming it
	public := map[string]bool{} // "path.Type"
	for path, f := range files {
		imports := importsOf(f)
		self := pkgPath(path)
		declName := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				declName[d.Name] = true
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							declName[id] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					declName[ts.Name] = true
					if self == "ccift" && ts.Assign.IsValid() {
						public[typeOf(path, imports, ts.Type)] = true
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[use{imports[x.Name], n.Sel.Name}] = append(used[use{imports[x.Name], n.Sel.Name}], path)
					return false
				}
				used[use{"", n.Sel.Name}] = append(used[use{"", n.Sel.Name}], path)
			case *ast.Ident:
				if !declName[n] {
					used[use{self, n.Name}] = append(used[use{self, n.Name}], path)
				}
			}
			return true
		})
	}
	elsewhere := func(u use, path string) bool {
		return slices.ContainsFunc(used[u], func(p string) bool { return p != path })
	}
	var orphans []string
	for path, f := range files {
		if !strings.HasPrefix(path, "internal/") {
			continue
		}
		self := pkgPath(path)
		dir := filepath.Dir(path)
		imports := importsOf(f)
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					if !elsewhere(use{self, d.Name.Name}, path) {
						orphans = append(orphans, dir+"."+d.Name.Name)
					}
					continue
				}
				recv := typeOf(path, imports, d.Recv.List[0].Type)
				name := recv[strings.LastIndex(recv, ".")+1:]
				if ast.IsExported(name) && !public[recv] && !elsewhere(use{"", d.Name.Name}, path) {
					orphans = append(orphans, dir+"."+name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && len(used[use{self, s.Name.Name}]) == 0 {
							orphans = append(orphans, dir+"."+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() && !elsewhere(use{self, id.Name}, path) {
								orphans = append(orphans, dir+"."+id.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(orphans)
	return orphans
}

// pkgPath is the import path of the package a file of the module is in.
func pkgPath(file string) string {
	if dir := filepath.Dir(file); dir != "." {
		return "ccift/" + dir
	}
	return "ccift"
}

// exportAllowList is every export of internal/ that stays without a non-test
// user outside its own file, with the reason. A key ending in "." covers a
// whole package or type.
var exportAllowList = map[string]string{
	"internal/baseline.":                           "the reference models the paper argues against (Section 3: blocking, Chandy–Lamport, sender-based logging), run only by their own tests",
	"internal/testseed.":                           "the suites' shared seed helper: a package only tests import",
	"internal/ckpt.Heap.":                          "the program-facing heap, reached through Rank.Heap()",
	"internal/ckpt.PositionStack.":                 "the program-facing position stack, reached through Rank.PS()",
	"internal/cerr.CodeProgram":                    "one exit-code table: ExitCode returns every value and the README documents them",
	"internal/cerr.CodeMaxRestarts":                "one exit-code table: ExitCode returns every value and the README documents them",
	"internal/cerr.CodeWorldDead":                  "one exit-code table: ExitCode returns every value and the README documents them",
	"internal/engine.Run":                          "bench/ pins it (exec.go)",
	"internal/launch.Run":                          "bench/ pins it (exec.go)",
	"internal/protocol.Layer.CheckpointInProgress": "bench/ pins it (exec.go)",
	"internal/mpi.World.OpCount":                   "bench/ pins it (exec.go, ring.go)",
	"internal/mpi.Comm.Allgather":                  "bench/ pins it (probes.go): the allocating form its control-collective probe times",
	"internal/protocol.Layer.Allgather":            "bench/ pins it (probes.go): the allocating form its control-collective probe times",
	"internal/mpi.World.PoisonReleased":            "a test seam, like ckpt.PoisonReleasedSlabs",
	"internal/mpi.World.Transport":                 "the tests of the simulated and TCP transports drive a world's transport directly",
	"internal/storage.ChunkedWriter.Pipeline":      "bench/ pins it (probes.go)",
	"internal/ckpt.Saver.StartRestore":             "bench/ pins it (probes.go): the restore from a blob its probe holds",
	"internal/precompiler.TransformPoisoned":       "the liveness oracle's generation: the Laplace suite rebuilds itself and the launch suite with it, and nothing ships it",
	"internal/protocol.Layer.Config":               "TestPolicySeam's probe reads what a worker process's layer was configured with",
	"internal/protocol.VerifyEveryFreeze":          "a test seam a TestMain calls, like ckpt.PoisonReleasedSlabs",
	"internal/ckpt.PoisonReleasedSlabs":            "a test seam every suite's TestMain calls",
	"internal/storage.Disk.GetInto":                "an optional method storage.GetInto finds by type assertion",
	"internal/storage.Disk.Has":                    "an optional method storage.Has finds by type assertion",
	"internal/storage.Memory.Has":                  "an optional method storage.Has finds by type assertion",
	"internal/storage.Throttled.Has":               "an optional method storage.Has finds by type assertion",
	"internal/storage.LogKey":                      "the layout's key constructors are one set: tests that damage a store name a rank's blobs by them",
	"internal/storage.MetaKey":                     "the layout's key constructors are one set: tests that damage a store name a rank's blobs by them",
}

// exportAllowed reports the exportAllowList key that covers an export.
func exportAllowed(name string) (string, bool) {
	for key := range exportAllowList {
		if key == name || strings.HasSuffix(key, ".") && strings.HasPrefix(name, key) {
			return key, true
		}
	}
	return "", false
}

// errorRootAllowList is every function of the root package, store/ and
// internal/ that may build an error without wrapping a cause or a category,
// keyed "path: function", with the reason. Everywhere else an error is born
// in the cerr category it reaches Launch or a CLI with, and every layer
// above wraps it with %w, so exactly one ccift.Err* survives to the caller.
var errorRootAllowList = map[string]string{
	"internal/wire/wire.go: fail":                 "a decode error of the codec, which imports only the standard library: its reader decides the category (ErrStore off the store, ErrTransport off a socket)",
	"internal/wire/wire.go: ReadFrame":            "a lying length word, and the codec imports only the standard library: its reader decides the category (launch's control stream wraps ErrTransport)",
	"internal/protocol/machine.go: verify":        "Figure 4's Debug invariant faults: machine.go imports nothing from internal/, and the Layer panics with the text, which ends the run as ErrProgram",
	"internal/ckpt/freeze.go: freeze":             "a can't-happen guard: pushEntry stores only the three kinds the switch lists",
	"internal/harness/harness.go: ChecksumsAgree": "a Figure 8 verdict fig8 prints and exits 1 on: no run returns it",
}

// errorSites lists "path: function: what" for every fmt.Errorf of the root
// package, store/ and internal/ whose format is not a literal that wraps
// with %w, and every errors.New that is not the value of a package-level
// var (a sentinel). A site outside a function is keyed by its declaration
// keyword.
func errorSites(files tree) []string {
	var sites []string
	for path, f := range files {
		if filepath.Dir(path) != "." && !strings.HasPrefix(path, "store/") && !strings.HasPrefix(path, "internal/") {
			continue
		}
		for _, decl := range f.Decls {
			owner := ""
			sentinel := map[ast.Expr]bool{}
			switch d := decl.(type) {
			case *ast.FuncDecl:
				owner = d.Name.Name
			case *ast.GenDecl:
				owner = d.Tok.String()
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && d.Tok == token.VAR {
						for _, v := range vs.Values {
							sentinel[v] = true
						}
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch types.ExprString(call.Fun) {
				case "fmt.Errorf":
					if format, ok := literal(call.Args[0]); !ok || !strings.Contains(format, "%w") {
						sites = append(sites, path+": "+owner+": fmt.Errorf without a literal format that wraps with %w")
					}
				case "errors.New":
					if !sentinel[call] {
						sites = append(sites, path+": "+owner+": errors.New outside a package-level var")
					}
				}
				return true
			})
		}
	}
	slices.Sort(sites)
	return sites
}

// literal returns the text of a string literal, or of a concatenation of
// string literals.
func literal(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Value, e.Kind == token.STRING
	case *ast.BinaryExpr:
		x, okx := literal(e.X)
		y, oky := literal(e.Y)
		return x + y, okx && oky && e.Op == token.ADD
	}
	return "", false
}

// rule is one of the architecture's rules.
type rule struct {
	name string
	pr   int // the PR that established the rule
	// check returns what violates the rule in a tree, one message per
	// finding.
	check func(tr tree) []string
	// violation is a file that breaks the rule: it joins the tree, or
	// replaces the file of the tree at its path, and check must report it.
	violation snippet
}

type snippet struct{ path, src string }

var rules = []rule{
	{
		name: "only internal/mpi/elems.go imports unsafe",
		pr:   25,
		check: func(tr tree) []string {
			var got []string
			for path, f := range tr.code() {
				for _, imp := range f.Imports {
					if imp.Path.Value == `"unsafe"` {
						got = append(got, path)
					}
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, []string{"internal/mpi/elems.go"}) {
				return []string{fmt.Sprintf("unsafe is imported by %v: only internal/mpi/elems.go may view typed memory as bytes (and never the reverse); a second file is the per-element pack loops, or worse, growing back", got)}
			}
			return nil
		},
		violation: snippet{"internal/mpi/pack.go", `package mpi; import "unsafe"; func view(x []float64) []byte { return unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), 8*len(x)) }`},
	},
	{
		name: "internal/mpi imports no math/rand",
		pr:   39,
		// The message-order adversary is the simulator's seeded per-link
		// jitter (internal/sim). A PRNG in the substrate is a second,
		// unseeded-by-the-scenario reordering mode growing back.
		check: func(tr tree) (got []string) {
			for path, f := range tr.code("internal/mpi") {
				for _, imp := range f.Imports {
					if p := strings.Trim(imp.Path.Value, `"`); p == "math/rand" || p == "math/rand/v2" {
						got = append(got, fmt.Sprintf("%s imports %s: internal/mpi delivers in arrival order; reordering belongs to internal/sim", path, p))
					}
				}
			}
			return got
		},
		violation: snippet{"internal/mpi/chaos.go", `package mpi; import "math/rand"; func shuffle(q []int) { rand.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] }) }`},
	},
	{
		name: "internal/protocol and internal/launch import no encoding/json",
		pr:   46,
		// What crosses the process boundary — control frames, the counters
		// riding them, recovery slices — is a wire layout. A JSON codec here
		// is a second format on a second stream growing back.
		check: func(tr tree) (got []string) {
			for path, f := range tr.code("internal/protocol", "internal/launch") {
				for _, imp := range f.Imports {
					if imp.Path.Value == `"encoding/json"` {
						got = append(got, fmt.Sprintf("%s imports encoding/json: what crosses the process boundary is an internal/wire layout", path))
					}
				}
			}
			return got
		},
		violation: snippet{"internal/launch/stats.go", `package launch; import "encoding/json"; func encodeStats(v any) ([]byte, error) { return json.Marshal(v) }`},
	},
	{
		name: "the control allgather runs in exchangeControl alone",
		pr:   25,
		check: func(tr tree) []string {
			// A control allgather: an Allgather or AllgatherInto that carries the
			// control states, or any literal bytes.
			control := func(call *ast.CallExpr) bool {
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Allgather" && sel.Sel.Name != "AllgatherInto" {
					return false
				}
				found := false
				for _, arg := range call.Args {
					ast.Inspect(arg, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.CompositeLit:
							found = true
						case *ast.SelectorExpr:
							found = found || n.Sel.Name == "ctlStates" || n.Sel.Name == "ctlMine"
						}
						return !found
					})
				}
				return found
			}
			sites := funcsCalling(tr.code("internal/protocol"), control)
			if want := []string{"internal/protocol/collective.go: exchangeControl"}; !slices.Equal(sites, want) {
				return []string{fmt.Sprintf("control allgathers in %v, want %v: the riding collectives carry their control word on their own messages, and the rooted ones share the one explicit exchange — a second is a per-collective control round growing back", sites, want)}
			}
			return nil
		},
		violation: snippet{"internal/protocol/vote.go", `package protocol; func (l *Layer) vote() []byte { return l.w.Allgather([]byte{1}) }`},
	},
	{
		name: "no serialized copy of the state retained in internal/protocol",
		pr:   19,
		// A tee on the state writer, or a state-sized buffer kept beside the
		// retained view, is 4 MB per epoch per rank growing back.
		check: func(tr tree) []string {
			var got []string
			for path, f := range tr.code("internal/protocol") {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if n.Name == "teeSection" || n.Name == "retainedBytes" {
							got = append(got, path+": "+n.Name)
						}
					case *ast.SelectorExpr:
						if s := types.ExprString(n); s == "io.MultiWriter" || s == "io.TeeReader" {
							got = append(got, path+": "+s)
						}
					case *ast.Field, *ast.ValueSpec:
						names, typ := declared(n)
						for _, id := range names {
							if s := types.ExprString(typ); strings.HasPrefix(id.Name, "retain") && strings.TrimPrefix(s, "*") == "bytes.Buffer" {
								got = append(got, path+": "+id.Name+" "+s)
							}
						}
					}
					return true
				})
			}
			if len(got) > 0 {
				return []string{fmt.Sprintf("%v: internal/protocol retains frozen views (ckpt.Frozen), not serialized state blobs", got)}
			}
			return nil
		},
		violation: snippet{"internal/protocol/keep.go", `package protocol; import "bytes"; type kept struct{ retained bytes.Buffer }`},
	},
	{
		name: "a survivor serializes its retained view only to cross-check it under Debug",
		pr:   34,
		// A survivor arms its Saver straight from the view; a Snapshot outside
		// the Debug cross-check is the serialize-then-decode rollback growing
		// back, and none at all is the cross-check gone.
		check: func(tr tree) []string {
			snapshot := func(call *ast.CallExpr) bool {
				sel, ok := call.Fun.(*ast.SelectorExpr)
				return ok && sel.Sel.Name == "Snapshot"
			}
			var got []string
			for path, f := range tr.code("internal/protocol") {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					var debug []ast.Node // the bodies of the function's `if ….Debug` branches
					ast.Inspect(fn.Body, func(n ast.Node) bool {
						if is, ok := n.(*ast.IfStmt); ok && strings.HasSuffix(types.ExprString(is.Cond), ".Debug") {
							debug = append(debug, is.Body)
						}
						if call, ok := n.(*ast.CallExpr); ok && snapshot(call) {
							site := path + ": " + fn.Name.Name
							if slices.ContainsFunc(debug, func(b ast.Node) bool { return b.Pos() <= call.Pos() && call.End() <= b.End() }) {
								site += ", under Debug"
							}
							got = append(got, site)
						}
						return true
					})
				}
			}
			slices.Sort(got)
			if want := []string{"internal/protocol/state.go: RestoreFrom, under Debug"}; !slices.Equal(got, want) {
				return []string{fmt.Sprintf("Snapshot calls in internal/protocol: %v, want %v: a survivor restores straight out of its retained view, and serializes it only for the Debug check against the store's object", got, want)}
			}
			return nil
		},
		violation: snippet{"internal/protocol/rollback.go", `package protocol; func (l *Layer) rollback(r *RetainedState) []byte { return r.Frozen.Snapshot() }`},
	},
	{
		name: "one spelling per collective",
		pr:   33,
		check: func(tr tree) (got []string) {
			for pt, want := range collectiveSurface {
				var have []string
				for _, f := range tr.code(pt[0]) {
					for _, decl := range f.Decls {
						fn, ok := decl.(*ast.FuncDecl)
						if !ok || fn.Recv == nil || !fn.Name.IsExported() || !collectiveName.MatchString(fn.Name.Name) {
							continue
						}
						if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
							if id, ok := star.X.(*ast.Ident); ok && id.Name == pt[1] {
								have = append(have, fn.Name.Name)
							}
						}
					}
				}
				slices.Sort(have)
				if !slices.Equal(have, want) {
					got = append(got, fmt.Sprintf("the collectives of *%s.%s are %v, want %v: each collective is one form that fills a result the caller provides, and a second spelling (a form returning a fresh slice, a typed variant) is a surface that grows at every layer at once — add one here only with the reason it needs to exist",
						filepath.Base(pt[0]), pt[1], have, want))
				}
			}
			return got
		},
		violation: snippet{"internal/mpi/typed.go", `package mpi; func (c *Comm) AllreduceF64(data []float64, op func(a, b float64) float64) []float64 { return nil }`},
	},
	{
		name: "machine.go imports nothing from internal/ and no time",
		pr:   37,
		// Figure 4 as a pure state machine (protocol/machine.go) can be
		// stepped without a world only while it reaches for no substrate,
		// store or clock.
		check: func(tr tree) (got []string) {
			f, ok := tr["internal/protocol/machine.go"]
			if !ok {
				return []string{"internal/protocol/machine.go is gone: the protocol's state machine lives there"}
			}
			for _, imp := range f.Imports {
				if p := strings.Trim(imp.Path.Value, `"`); strings.HasPrefix(p, "ccift/internal/") || p == "time" {
					got = append(got, fmt.Sprintf("internal/protocol/machine.go imports %s: the state machine does no I/O and reads no clock; the Layer, its shell, does", p))
				}
			}
			return got
		},
		violation: snippet{"internal/protocol/machine.go", `package protocol; import "time"; type machine struct{ since time.Time }`},
	},
	{
		name: "Figure 4's variables are assigned in machine.go alone",
		pr:   37,
		check: func(tr tree) []string {
			var got []string
			for path, f := range tr.code("internal/protocol") {
				if path == "internal/protocol/machine.go" {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					var lhs []ast.Expr
					switch n := n.(type) {
					case *ast.AssignStmt:
						lhs = n.Lhs
					case *ast.IncDecStmt:
						lhs = []ast.Expr{n.X}
					}
					for _, e := range lhs {
						if name := figure4Field(e); name != "" {
							got = append(got, path+": "+types.ExprString(e))
						}
					}
					return true
				})
			}
			slices.Sort(got)
			if len(got) > 0 {
				return []string{fmt.Sprintf("%v: the protocol's epoch, logging and coordination state changes only through a transition of the state machine (internal/protocol/machine.go); the Layer reads it and runs the actions it queues", got)}
			}
			return nil
		},
		violation: snippet{"internal/protocol/skip.go", `package protocol; func (l *Layer) skipEpoch() { l.m.epoch++ }`},
	},
	{
		name: "no clock fork in protocol or storage, no sleep in internal/engine",
		pr:   17,
		// One checkpoint write path on every clock: a branch on
		// which clock the layer or the writer runs is the sim-sync mode
		// growing back, and a sleep in the engine or its tests is a
		// wall-clock stand-in for a wait that belongs on virtual time.
		check: func(tr tree) []string {
			var got []string
			for path, f := range tr.code("internal/protocol", "internal/storage") {
				ast.Inspect(f, func(n ast.Node) bool {
					if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
						x, y := types.ExprString(b.X), types.ExprString(b.Y)
						if x == "nil" && strings.HasSuffix(y, "Clock") || y == "nil" && strings.HasSuffix(x, "Clock") {
							got = append(got, path+": "+types.ExprString(b))
						}
					}
					return true
				})
			}
			for path, f := range tr {
				if filepath.Dir(path) != "internal/engine" {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if s, ok := n.(*ast.SelectorExpr); ok && types.ExprString(s) == "time.Sleep" {
						got = append(got, path+": time.Sleep")
					}
					return true
				})
			}
			slices.Sort(got)
			if len(got) > 0 {
				return []string{fmt.Sprintf("%v: internal/protocol and internal/storage take no decision on the clock they run on, and internal/engine (tests included) parks on the transport or tests on virtual time instead of sleeping", got)}
			}
			return nil
		},
		violation: snippet{"internal/engine/settle_test.go", `package engine; import "time"; func settle() { time.Sleep(10 * time.Millisecond) }`},
	},
	{
		name: "no sleep or settle window in internal/launch",
		pr:   15,
		// Distributed recovery is event-driven end to end: a sleep or a
		// time.After in the launcher or the worker role is a poll or a
		// settle window growing back. The one bounded wait (a rank that
		// neither parks nor dies) uses a stoppable time.NewTimer.
		check: func(tr tree) []string {
			sites := funcsCalling(tr.code("internal/launch"), func(call *ast.CallExpr) bool {
				s := types.ExprString(call.Fun)
				return s == "time.Sleep" || s == "time.After"
			})
			if len(sites) > 0 {
				return []string{fmt.Sprintf("%v: internal/launch reacts to events (a frame, an exit), it does not wait out a timer", sites)}
			}
			return nil
		},
		violation: snippet{"internal/launch/settle.go", `package launch; import "time"; func settle(done <-chan struct{}) { select { case <-done: case <-time.After(time.Second): } }`},
	},
	{
		name: "one owner of the store layout",
		pr:   23,
		// The keys, the manifest format and the one enumeration of ckpt/
		// live in internal/storage; everything else (the commit's prune,
		// package store behind c3admin) projects its walk. A key literal, a
		// manifest parse or a List anywhere else is a second walker growing
		// back — the kind that once missed the meta.<rank> blobs.
		// (internal/sim's List is a delegating Stable wrapper.)
		check: func(tr tree) []string {
			var got []string
			for path, f := range tr.code() {
				if strings.HasPrefix(path, "internal/storage/") {
					continue
				}
				admin := strings.HasPrefix(path, "store/") || strings.HasPrefix(path, "cmd/")
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.BasicLit:
						if n.Kind == token.STRING && strings.HasPrefix(n.Value[1:], "ckpt/") {
							got = append(got, path+": "+n.Value)
						}
					case *ast.SelectorExpr:
						if name := n.Sel.Name; name == "IsManifest" || name == "ParseManifest" || admin && name == "List" {
							got = append(got, path+": "+types.ExprString(n))
						}
					}
					return true
				})
			}
			walks := funcsCalling(tr.code("internal/storage"), func(call *ast.CallExpr) bool {
				s := types.ExprString(call.Fun)
				return strings.HasSuffix(s, ".List") && s != "t.Inner.List" // Throttled delegates
			})
			if want := []string{"internal/storage/checkpoints.go: Walk"}; !slices.Equal(walks, want) {
				got = append(got, walks...)
			}
			slices.Sort(got)
			if len(got) > 0 {
				return []string{fmt.Sprintf("%v: the store layout belongs to internal/storage — its key constructors, and one function that lists it (CheckpointStore.Walk), which everything else reads through Walk, Read and Refs", got)}
			}
			return nil
		},
		violation: snippet{"store/epochs.go", `package store; import "ccift/internal/storage"; func epochs(s storage.Stable) ([]string, error) { return s.List("ckpt/") }`},
	},
	{
		name: "one owner of record layouts",
		pr:   41,
		// The records read back from outside the process — the protocol
		// record, the log, the chunk manifest, the control frame, the
		// application state and its values — are layouts of internal/wire's
		// codec, which checks every count against the bytes present, and
		// which also sizes them and streams them, cuts and all. A varint
		// call anywhere else is a hand decoder, or a second encoder, growing
		// back. internal/wire sits below every package, so it imports only
		// the standard library.
		check: func(tr tree) []string {
			var got []string
			for path, f := range tr.code("internal/wire") {
				for _, imp := range f.Imports {
					if p := strings.Trim(imp.Path.Value, `"`); strings.HasPrefix(p, "ccift") || strings.Contains(strings.Split(p, "/")[0], ".") {
						got = append(got, path+" imports "+p)
					}
				}
			}
			varint := regexp.MustCompile(`^(Put|Append|Read)?(Uvarint|Varint)$`)
			for path, f := range tr.code() {
				if strings.HasPrefix(path, "internal/wire/") {
					continue
				}
				for _, imp := range f.Imports {
					if imp.Path.Value != `"encoding/binary"` {
						continue
					}
					name := "binary"
					if imp.Name != nil {
						name = imp.Name.Name
					}
					ast.Inspect(f, func(n ast.Node) bool {
						if s, ok := n.(*ast.SelectorExpr); ok && types.ExprString(s.X) == name && varint.MatchString(s.Sel.Name) {
							got = append(got, path+": "+types.ExprString(s))
						}
						return true
					})
				}
			}
			slices.Sort(got)
			if len(got) > 0 {
				return []string{fmt.Sprintf("%v: a record read back from outside the process is a layout of internal/wire's codec, which imports only the standard library", got)}
			}
			return nil
		},
		violation: snippet{"internal/launch/frame.go", `package launch; import "encoding/binary"; func kind(b []byte) (uint64, int) { return binary.Uvarint(b) }`},
	},
	{
		name: "one supervision loop",
		pr:   13,
		// The rollback logic exists once (engine.Supervisor): a second place
		// that mints the restart-budget error or gathers a recovery plan is a
		// second rollback loop growing back.
		check: func(tr tree) []string {
			internal := tree{}
			for path, f := range tr.code() {
				if strings.HasPrefix(path, "internal/") && !strings.HasPrefix(path, "internal/cerr/") {
					internal[path] = f
				}
			}
			budget := funcsCalling(internal, func(call *ast.CallExpr) bool {
				if len(call.Args) < 2 {
					return false
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				return ok && strings.HasPrefix(lit.Value, `"%w`) && types.ExprString(call.Args[1]) == "cerr.ErrMaxRestarts"
			})
			gathers := funcsCalling(internal, func(call *ast.CallExpr) bool {
				return types.ExprString(call.Fun) == "protocol.GatherRecovery"
			})
			want := []string{"internal/engine/supervise.go: Run"}
			if !slices.Equal(budget, want) || !slices.Equal(gathers, want) {
				return []string{fmt.Sprintf("ErrMaxRestarts is minted in %v and the recovery plan gathered in %v, want each once, in %v", budget, gathers, want)}
			}
			return nil
		},
		violation: snippet{"internal/launch/budget.go", `package launch; import ("fmt"; "ccift/internal/cerr"); func outOfRestarts(n int) error { return fmt.Errorf("%w: %d restarts", cerr.ErrMaxRestarts, n) }`},
	},
	{
		name: "no feedback state in the flush path",
		pr:   18,
		// Nothing paces the flush: the adaptive governor went
		// because no workload engaged it, and the fixed cap that replaced it
		// for the same reason. A rate the code adapts is the governor growing
		// back without a workload that needs it.
		check: func(tr tree) []string {
			governor := regexp.MustCompile(`observe(Idle|Flush)|govMark|idleRate|potentialCalls`)
			var got []string
			for path, f := range tr.code("internal/protocol") {
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && governor.MatchString(id.Name) {
						got = append(got, path+": "+id.Name)
					}
					return true
				})
			}
			if len(got) > 0 {
				return []string{fmt.Sprintf("%v: flush pacing has no feedback state", got)}
			}
			return nil
		},
		violation: snippet{"internal/protocol/pace.go", `package protocol; type pacer struct{ idleRate float64 }`},
	},
	{
		name: "the public options match api/options.txt",
		pr:   12,
		// The option surface is a checked-in list: a new knob is a visible
		// one-line diff that has to be argued for ("new knobs need a
		// measured reason to exist"). The list is every top-level With*
		// function of the root package, its signature as go doc prints it,
		// in byte order.
		check: func(tr tree) []string {
			var got []string
			for _, f := range tr.code(".") {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "With") {
						continue
					}
					got = append(got, "func "+fn.Name.Name+strings.TrimPrefix(types.ExprString(fn.Type), "func"))
				}
			}
			slices.Sort(got)
			want, err := os.ReadFile("api/options.txt")
			if err != nil {
				return []string{err.Error()}
			}
			if g := strings.Join(got, "\n") + "\n"; g != string(want) {
				return []string{fmt.Sprintf("the options of the root package are\n%s\napi/options.txt lists\n%s\nadd or remove an option only with its measured reason, and update the file to the list above", g, want)}
			}
			return nil
		},
		violation: snippet{"knob.go", `package ccift; func WithSpinBudget(d time.Duration) Option { return nil }`},
	},
	{
		name: "Rank's methods match api/rank.txt",
		pr:   37,
		// The program-facing surface is a checked-in list, like the options
		// (api/options.txt): a method added to Rank is a visible one-line
		// diff that has to be argued for.
		check: func(tr tree) []string {
			var got []string
			for _, f := range tr.code("internal/engine") {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv == nil || !fn.Name.IsExported() || types.ExprString(fn.Recv.List[0].Type) != "*Rank" {
						continue
					}
					got = append(got, fn.Name.Name+strings.TrimPrefix(types.ExprString(fn.Type), "func"))
				}
			}
			slices.Sort(got)
			want, err := os.ReadFile("api/rank.txt")
			if err != nil {
				return []string{err.Error()}
			}
			if g := strings.Join(got, "\n") + "\n"; g != string(want) {
				return []string{fmt.Sprintf("the exported methods of engine.Rank (ccift.Rank) are\n%s\napi/rank.txt lists\n%s\nadd or remove a method only with its reason, and update the file to the list above", g, want)}
			}
			return nil
		},
		violation: snippet{"internal/engine/shortcut.go", `package engine; func (r *Rank) Store() any { return r.l.Saver }`},
	},
	{
		name: "no raw communicator reaches a program",
		// Traffic the protocol does not see is neither logged nor suppressed,
		// which is Section 3's inconsistency: a message on a communicator of
		// the program's own crosses the recovery line unnoticed. So no
		// exported method of Rank, and no exported name of the root package,
		// carries an mpi.Comm or a communicator handle in its signature; the
		// one communicator is the world's, inside the protocol layer.
		check: func(tr tree) []string {
			comm := func(n ast.Node) (found bool) {
				ast.Inspect(n, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						found = found || n.Sel.Name == "Comm" || n.Sel.Name == "CommHandle" || n.Sel.Name == "WorldComm"
					case *ast.Ident:
						found = found || n.Name == "CommHandle" || n.Name == "WorldComm"
					}
					return !found
				})
				return found
			}
			var got []string
			for path, f := range tr.code("internal/engine", ".") {
				root := filepath.Dir(path) == "."
				for _, decl := range f.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						onRank := d.Recv != nil && types.ExprString(d.Recv.List[0].Type) == "*Rank"
						if d.Name.IsExported() && (root || onRank) && comm(d.Type) {
							got = append(got, path+": "+d.Name.Name)
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch sp := spec.(type) {
							case *ast.TypeSpec:
								if root && sp.Name.IsExported() && comm(sp.Type) {
									got = append(got, path+": "+sp.Name.Name)
								}
							case *ast.ValueSpec:
								if root && slices.ContainsFunc(sp.Names, (*ast.Ident).IsExported) && comm(sp) {
									got = append(got, path+": "+sp.Names[0].Name)
								}
							}
						}
					}
				}
			}
			if len(got) > 0 {
				return []string{fmt.Sprintf("%v: a program's messages go through the protocol layer, not a communicator of its own", got)}
			}
			return nil
		},
		violation: snippet{"internal/engine/subcomm.go", `package engine; import "ccift/internal/mpi"; func (r *Rank) SubComm(h int) *mpi.Comm { return nil }`},
	},
	{
		name: "every export in internal/ has a user outside its own file",
		pr:   36,
		check: func(tr tree) (got []string) {
			var orphans []string
			matched := map[string]bool{}
			for _, name := range exportsWithoutUsers(tr.code()) {
				if key, ok := exportAllowed(name); ok {
					matched[key] = true
				} else {
					orphans = append(orphans, name)
				}
			}
			if len(orphans) > 0 {
				got = append(got, fmt.Sprintf("%v: exported from internal/ with no non-test user outside their own file — delete what nothing calls, unexport what only its package calls (its tests included), or add it to exportAllowList with the reason it stays", orphans))
			}
			// An entry nothing matches any more is a reason that outlived its export.
			for key := range exportAllowList {
				if !matched[key] {
					got = append(got, fmt.Sprintf("exportAllowList lists %s, which is no longer an export without users: drop the entry", key))
				}
			}
			return got
		},
		violation: snippet{"internal/mpi/probe.go", `package mpi; func ProbeAll(c *Comm) int { return 0 }`},
	},
	{
		name: "errors are born in their category and wrapped with %w",
		pr:   6,
		// Every error escaping Launch (or c3admin's store API) matches
		// exactly one ccift.Err* through errors.Is. That holds only while a
		// new error carries its cerr category from birth and every layer
		// above wraps it with %w: a %v flattens the cause to a string and
		// drops the category. A layer that adds a category to an error that
		// may already carry one does it with cerr.Ensure.
		check: func(tr tree) (got []string) {
			matched := map[string]bool{}
			for _, site := range errorSites(tr.code()) {
				key := site[:strings.LastIndex(site, ": ")]
				if _, ok := errorRootAllowList[key]; ok {
					matched[key] = true
					continue
				}
				got = append(got, fmt.Sprintf("%s: give the error the cerr category it reaches Launch with (fmt.Errorf(\"%%w: …\", cerr.ErrX, …)) or wrap its cause with %%w, so exactly one ccift.Err* survives to the caller; or add the function to errorRootAllowList with the reason its reader decides", site))
			}
			for key := range errorRootAllowList {
				if !matched[key] {
					got = append(got, fmt.Sprintf("errorRootAllowList lists %s, which builds no unwrapped error any more: drop the entry", key))
				}
			}
			return got
		},
		violation: snippet{"internal/storage/put.go", `package storage; import "fmt"; func put(s Stable, key string, b []byte) error { return fmt.Errorf("storage: put %s: %v", key, s.Put(key, b)) }`},
	},
	{
		name: "protocol.Config.IncrementalFreeze is named by bench/ alone",
		pr:   54,
		// Every layer freezes incrementally; the field is ignored and stays
		// only while the benchmark module sets it. A Go file here that sets
		// or reads it is the full freeze's switch growing back.
		check: func(tr tree) (got []string) {
			for path, f := range tr {
				ast.Inspect(f, func(n ast.Node) bool {
					var id *ast.Ident
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						id, _ = n.Key.(*ast.Ident)
					case *ast.SelectorExpr:
						id = n.Sel
					}
					if id != nil && id.Name == "IncrementalFreeze" {
						got = append(got, fmt.Sprintf("%s names IncrementalFreeze: every freeze is incremental, and the field stays only for bench/", path))
					}
					return true
				})
			}
			return got
		},
		violation: snippet{"internal/engine/full.go", `package engine; import "ccift/internal/protocol"; var fullFreeze = protocol.Config{IncrementalFreeze: false}`},
	},
	{
		name: "Comm.sendh calls no make",
		pr:   29,
		// One send path, and it recycles: sendh takes the message and its
		// copy of the payload from the world's free list (World.message), on
		// every substrate, with no switch beside it. A make in sendh is the
		// per-send allocation growing back.
		check: func(tr tree) []string {
			sites := funcsCalling(tr.code("internal/mpi"), func(call *ast.CallExpr) bool {
				return types.ExprString(call.Fun) == "make"
			})
			if slices.Contains(sites, "internal/mpi/p2p.go: sendh") {
				return []string{"Comm.sendh takes its message and payload buffer from World.message, it does not allocate them"}
			}
			return nil
		},
		violation: snippet{"internal/mpi/p2p.go", `package mpi; func (c *Comm) sendh(dst, tag int, data []byte) { copy(make([]byte, len(data)), data) }`},
	},
	{
		name: "one distributed launch path",
		pr:   56,
		// ccift.Launch is the one launcher and the one worker entry of a
		// distributed run: a driver that spawns workers or runs the worker
		// role itself is a fork of it, one that drifts (fig8's dropped the
		// worker's Interval and Seed, and parsed the result line by hand).
		check: func(tr tree) []string {
			outside := tree{}
			for path, f := range tr.code() {
				if !strings.HasPrefix(path, "internal/launch/") {
					outside[path] = f
				}
			}
			sites := funcsCalling(outside, func(call *ast.CallExpr) bool {
				fn := types.ExprString(call.Fun)
				return fn == "launch.WorkerMain" || fn == "launch.RunContext"
			})
			want := []string{"launch.go: Launch", "launch.go: launchDistributed"}
			if !slices.Equal(sites, want) {
				return []string{fmt.Sprintf("launch.WorkerMain and launch.RunContext are called from %v, want %v alone", sites, want)}
			}
			return nil
		},
		violation: snippet{"cmd/fig8/worker.go", `package main; import "ccift/internal/launch"; func workerMain() { launch.WorkerMain(launch.WorkerApp{}) }`},
	},
	{
		name: "one metrics renderer",
		pr:   59,
		// The endpoint is metrics.go's one handler, rendering the run's
		// stats at scrape time. An HTTP server anywhere else is a second
		// observability system (a general-purpose registry was one).
		check: func(tr tree) (got []string) {
			for path, f := range tr.code() {
				for _, imp := range f.Imports {
					if imp.Path.Value == `"net/http"` && path != "metrics.go" {
						got = append(got, fmt.Sprintf("%s imports net/http: metrics.go is the one endpoint", path))
					}
				}
			}
			return got
		},
		violation: snippet{"internal/obs/serve.go", `package obs; import "net/http"; func serve(h http.Handler) error { return http.ListenAndServe(":9377", h) }`},
	},
}

func TestArchitecture(t *testing.T) {
	tr := parseTree(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			found := r.check(tr)
			for _, msg := range found {
				t.Error(msg)
			}
			t.Run("catches a violation", func(t *testing.T) {
				f, err := parser.ParseFile(token.NewFileSet(), r.violation.path, r.violation.src, 0)
				if err != nil {
					t.Fatal(err)
				}
				violated := maps.Clone(tr)
				violated[r.violation.path] = f
				fresh := func(msg string) bool { return !slices.Contains(found, msg) }
				if !slices.ContainsFunc(r.check(violated), fresh) {
					t.Errorf("the rule %q reports nothing for its violation, %s:\n%s", r.name, r.violation.path, r.violation.src)
				}
			})
		})
	}
}
