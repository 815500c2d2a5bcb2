package ccift_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The architecture's rules, checked on the source. Each row is a property a
// simplification established and a later change could quietly undo; as a
// test it fails wherever the suite runs, not only in CI. The benchmark
// module (bench/, its own go.mod) is outside every rule.

// parseDir parses the non-test Go files directly in dir, keyed by path.
func parseDir(t *testing.T, dir string, mode parser.Mode) map[string]*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.ToSlash(filepath.Join(dir, name))
		if files[path], err = parser.ParseFile(fset, path, nil, mode); err != nil {
			t.Fatal(err)
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
var collectiveName = regexp.MustCompile(`^(AlignedBarrier|Barrier|Bcast|Reduce|Allreduce|Gather|Allgather|Alltoall|Scatter|Scan|Reducescatter|Sendrecv)`)

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
		"AlignedBarrier", "Allgather", "AllgatherInto", "AllreduceInto", "AlltoallInto", "Barrier", "BcastInto",
		"GatherInto", "ReduceInto", "ReducescatterInto", "ScanInto", "ScatterInto", "Sendrecv",
	},
	{"internal/engine", "Rank"}: {
		"AlignedBarrier", "AllgatherF64", "AllgatherF64Into", "AllgatherInto", "AllreduceF64", "AllreduceF64Into",
		"AllreduceInto", "AlltoallInto", "Barrier", "BcastInto", "GatherF64", "GatherF64Into", "GatherInto",
		"ReduceInto", "ReducescatterInto", "ScanF64", "ScanInto", "ScatterInto", "Sendrecv",
	},
}

func TestArchitecture(t *testing.T) {
	t.Run("only internal/mpi/elems.go imports unsafe", func(t *testing.T) {
		var got []string
		err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if dir == "bench" || d.Name() == "testdata" || dir != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			for path, f := range parseDir(t, dir, parser.ImportsOnly) {
				for _, imp := range f.Imports {
					if imp.Path.Value == `"unsafe"` {
						got = append(got, path)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, []string{"internal/mpi/elems.go"}) {
			t.Fatalf("unsafe is imported by %v: only internal/mpi/elems.go may view typed memory as bytes (and never the reverse); a second file is the per-element pack loops, or worse, growing back", got)
		}
	})

	t.Run("the control allgather runs in exchangeControl alone", func(t *testing.T) {
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
		sites := funcsCalling(parseDir(t, "internal/protocol", 0), control)
		if want := []string{"internal/protocol/collective.go: exchangeControl"}; !slices.Equal(sites, want) {
			t.Fatalf("control allgathers in %v, want %v: the riding collectives carry their control word on their own messages, and the rooted ones and AlignedBarrier share the one explicit exchange — a second is a per-collective control round growing back", sites, want)
		}
	})

	t.Run("no serialized copy of the state retained in internal/protocol", func(t *testing.T) {
		// A tee on the state writer, or a state-sized buffer kept beside the
		// retained view, is 4 MB per epoch per rank growing back.
		var got []string
		for path, f := range parseDir(t, "internal/protocol", 0) {
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
			t.Fatalf("%v: internal/protocol retains frozen views (ckpt.Frozen), not serialized state blobs", got)
		}
	})

	t.Run("a survivor serializes its retained view only to cross-check it under Debug", func(t *testing.T) {
		// A survivor arms its Saver straight from the view; a Snapshot outside
		// the Debug cross-check is the serialize-then-decode rollback growing
		// back, and none at all is the cross-check gone.
		snapshot := func(call *ast.CallExpr) bool {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "Snapshot"
		}
		var got []string
		for path, f := range parseDir(t, "internal/protocol", 0) {
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
			t.Fatalf("Snapshot calls in internal/protocol: %v, want %v: a survivor restores straight out of its retained view, and serializes it only for the Debug check against the store's object", got, want)
		}
	})

	t.Run("one spelling per collective", func(t *testing.T) {
		for pt, want := range collectiveSurface {
			var got []string
			for _, f := range parseDir(t, pt[0], 0) {
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv == nil || !fn.Name.IsExported() || !collectiveName.MatchString(fn.Name.Name) {
						continue
					}
					if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
						if id, ok := star.X.(*ast.Ident); ok && id.Name == pt[1] {
							got = append(got, fn.Name.Name)
						}
					}
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("the collectives of *%s.%s are %v, want %v: each collective is one form that fills a result the caller provides, and a second spelling (a form returning a fresh slice, a typed variant) is a surface that grows at every layer at once — add one here only with the reason it needs to exist",
					filepath.Base(pt[0]), pt[1], got, want)
			}
		}
	})
}
