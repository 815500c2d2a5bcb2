package precompiler

import (
	"flag"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden transforms each testdata input and compares against its
// golden file — the repository's reproduction of Figures 6 and 7.
func TestGolden(t *testing.T) {
	inputs, err := filepath.Glob(filepath.Join("testdata", "*.input"))
	if err != nil || len(inputs) == 0 {
		t.Fatalf("no testdata inputs: %v", err)
	}
	for _, in := range inputs {
		name := strings.TrimSuffix(filepath.Base(in), ".input")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := transformFile(name+".go", src)
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("transform of %s diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", in, got, want)
			}
		})
	}
}

// TestGoldenOutputsParse re-parses every golden file: the transformation
// must always emit syntactically valid Go.
func TestGoldenOutputsParse(t *testing.T) {
	goldens, _ := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if len(goldens) == 0 {
		t.Skip("no goldens yet")
	}
	fset := token.NewFileSet()
	for _, g := range goldens {
		src, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parser.ParseFile(fset, g, src, 0); err != nil {
			t.Errorf("golden %s does not parse: %v", g, err)
		}
	}
}

// selfContained is a source with a local stand-in for the Rank runtime, so
// the transformed output can be fully type-checked — including Go's goto
// legality rules, which are what the cascaded dispatch exists to satisfy —
// without resolving imports.
const selfContained = `package app

type PS struct{}

func (*PS) Push(int)       {}
func (*PS) Pop()           {}
func (*PS) Resuming() bool { return false }
func (*PS) Resume() int    { return 0 }

type Rank struct{}

func (*Rank) PS() *PS                  { return nil }
func (*Rank) Register(string, any)     {}
func (*Rank) Unregister()              {}
func (*Rank) Touch(...string)          {}
func (*Rank) PotentialCheckpoint()     {}
func (*Rank) Send(int, int, []byte)    {}

func compute(r *Rank, iters int) float64 {
	var it int
	var acc float64
	var buf []byte
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		acc = inner(r, acc)
		r.Send(1, 1, buf)
		if acc > 10 {
			{
				r.PotentialCheckpoint()
			}
		}
	}
	return acc
}

func inner(r *Rank, x float64) float64 {
	var y float64
	y = x * 2
	r.PotentialCheckpoint()
	return y
}
`

// TestTransformedOutputTypeChecks runs the full Go type checker over a
// transformed source: every goto must be legal, every label used, every
// emitted identifier resolvable.
func TestTransformedOutputTypeChecks(t *testing.T) {
	out, err := transformFile("app.go", []byte(selfContained))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "app.go", out, 0)
	if err != nil {
		t.Fatalf("transformed output does not parse: %v\n%s", err, out)
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("app", fset, []*ast.File{f}, nil); err != nil {
		t.Fatalf("transformed output does not type-check: %v\n%s", err, out)
	}
}

// TestUntouchedFunctionsStayUntouched: functions that cannot reach a
// checkpoint are not instrumented.
func TestUntouchedFunctionsStayUntouched(t *testing.T) {
	src := `package app

type Rank struct{}

func (*Rank) PotentialCheckpoint() {}

func pure(x int) int { return x * 2 }

func alsoPure() string {
	s := "hello"
	return s
}
`
	out, err := transformFile("app.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(out), targetVar) || strings.Contains(string(out), "Register") {
		t.Fatalf("pure functions were instrumented:\n%s", out)
	}
}

// TestErrors exercises the statement-decomposition diagnostics.
func TestErrors(t *testing.T) {
	header := `package app

type PS struct{}

func (*PS) Push(int)       {}
func (*PS) Pop()           {}
func (*PS) Resuming() bool { return false }
func (*PS) Resume() int    { return 0 }

type Rank struct{}

func (*Rank) PS() *PS              { return nil }
func (*Rank) Register(string, any) {}
func (*Rank) Unregister()          {}
func (*Rank) PotentialCheckpoint() {}
`
	cases := []struct {
		name, body, wantErr string
	}{
		{
			name: "range loop",
			body: `func f(r *Rank, xs []int) {
	for range xs {
		r.PotentialCheckpoint()
	}
}`,
			wantErr: "range loop",
		},
		{
			name: "loop init",
			body: `func f(r *Rank) {
	for i := 0; i < 10; i++ {
		r.PotentialCheckpoint()
	}
}`,
			wantErr: "init clause",
		},
		{
			name: "call in expression",
			body: `func g(r *Rank) int { r.PotentialCheckpoint(); return 1 }
func f(r *Rank) {
	x := 1 + g(r)
	_ = x
}`,
			wantErr: "unsupported position",
		},
		{
			name: "short decl of checkpointable call",
			body: `func g(r *Rank) int { r.PotentialCheckpoint(); return 1 }
func f(r *Rank) {
	x := g(r)
	_ = x
}`,
			wantErr: "short variable declaration",
		},
		{
			name: "declaration before site in loop body",
			body: `func f(r *Rank) {
	var it int
	for ; it < 10; it++ {
		x := it * 2
		_ = x
		r.PotentialCheckpoint()
	}
}`,
			wantErr: "declaration precedes a resume label",
		},
		{
			name: "switch with site",
			body: `func f(r *Rank, k int) {
	switch k {
	case 1:
		r.PotentialCheckpoint()
	}
}`,
			wantErr: "switch/select",
		},
		{
			name: "no rank parameter",
			body: `func g(r *Rank) { r.PotentialCheckpoint() }
func f() { var r *Rank; g(r) }`,
			wantErr: "no *Rank parameter",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := transformFile("app.go", []byte(header+"\n"+tc.body+"\n"))
			if err == nil {
				t.Fatalf("expected error containing %q, got success", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestMultiFilePackage: the checkpointable fixed point crosses files.
func TestMultiFilePackage(t *testing.T) {
	a := `package app

type PS struct{}

func (*PS) Push(int)       {}
func (*PS) Pop()           {}
func (*PS) Resuming() bool { return false }
func (*PS) Resume() int    { return 0 }

type Rank struct{}

func (*Rank) PS() *PS              { return nil }
func (*Rank) Register(string, any) {}
func (*Rank) Unregister()          {}
func (*Rank) PotentialCheckpoint() {}

func helper(r *Rank) {
	r.PotentialCheckpoint()
}
`
	b := `package app

func driver(r *Rank) {
	helper(r)
}
`
	out, err := Transform([]File{{Name: "a.go", Src: []byte(a)}, {Name: "b.go", Src: []byte(b)}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out[1]), "ccift_l1") {
		t.Fatalf("driver in b.go was not instrumented:\n%s", out[1])
	}
}

// transformFile is the single-file convenience form of Transform.
func transformFile(name string, src []byte) ([]byte, error) {
	out, err := Transform([]File{{Name: name, Src: src}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
