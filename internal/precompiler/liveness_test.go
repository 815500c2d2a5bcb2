package precompiler

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLivenessVerdicts: the golden cases of testdata/liveness.input, as the
// transformation reports them. The golden file holds what each verdict
// emits; this holds the verdicts themselves.
func TestLivenessVerdicts(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "liveness.input"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transform([]File{{Name: "liveness.go", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"rangeFill.out", "rowsByCols.b", "swap.nxt"}; !reflect.DeepEqual(res.Dead, want) {
		t.Errorf("dead %v, want %v", res.Dead, want)
	}
	if want := []string{"mixed.scratch"}; !reflect.DeepEqual(res.Mixed, want) {
		t.Errorf("mixed %v, want %v", res.Mixed, want)
	}
}

// TestLivenessKeepsWhatItCannotProve: each function writes all of buf after
// its checkpoint in a way the rule does not accept, or reads it first, so
// buf stays registered.
func TestLivenessKeepsWhatItCannotProve(t *testing.T) {
	cases := map[string]string{
		"bound not the length": `
	var m int = n + 1
	var buf = make([]float64, n)
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		for i := 0; i < m; i++ {
			buf[i] = 1
		}
		sum += buf[0]
	}`,
		"bound assigned later": `
	var k int = n
	var buf = make([]float64, n)
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		for i := 0; i < k; i++ {
			buf[i] = 1
		}
		sum += buf[0]
		k = n
	}`,
		"column count assigned later": `
	var rows int = 2
	var buf = make([]float64, rows*n)
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				buf[i*n+j] = 1
			}
		}
		sum += buf[0]
		n = iters
	}`,
		"loop variable written in the body": `
	var buf = make([]float64, n)
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		for i := range buf {
			buf[i] = 1
			i++
		}
		sum += buf[0]
	}`,
		"store at another index": `
	var buf = make([]float64, n)
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		for i := range buf {
			buf[0] = float64(i)
		}
		sum += buf[1]
	}`,
		"store reads the buffer": `
	var buf = make([]float64, n)
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		for i := range buf {
			buf[i] = buf[i] + 1
		}
		sum += buf[0]
	}`,
		"length from a non-deterministic call": `
	var buf = make([]float64, seed())
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		for i := range buf {
			buf[i] = 1
		}
		sum += buf[0]
	}`,
		"resliced": `
	var buf = make([]float64, n)
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		for i := range buf {
			buf[i] = 1
		}
		sum += buf[0]
		buf = buf[:n]
	}`,
		"named by a closure": `
	var buf = make([]float64, n)
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		for i := range buf {
			buf[i] = 1
		}
		sum += func() float64 { return buf[0] }()
	}`,
		"a branch statement": `
	var buf = make([]float64, n)
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		for i := range buf {
			buf[i] = 1
		}
		if sum > 1 {
			break
		}
		sum += buf[0]
	}`,
		"read before the loop at the call site": `
	var buf = make([]float64, n)
	for ; it < iters; it++ {
		sum += use(r, buf)
		for i := range buf {
			buf[i] = 1
		}
	}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			src := `package app

import "ccift/internal/engine"

func seed() int { return 3 }

func use(r *engine.Rank, b []float64) float64 {
	r.PotentialCheckpoint()
	return b[0]
}

func f(r *engine.Rank, n, iters int) float64 {
	var it int
	var sum float64` + body + `
	return sum
}
`
			res, err := Transform([]File{{Name: "app.go", Src: []byte(src)}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Dead) != 0 {
				t.Fatalf("declared %v dead:\n%s", res.Dead, res.Files[0])
			}
			if !strings.Contains(string(res.Files[0]), `r.Register("f.buf", &buf)`) {
				t.Fatalf("buf is not registered:\n%s", res.Files[0])
			}
		})
	}
}

// poisonSrc has a dead buffer of each element type the analysis leaves out,
// and no import of math, over a local stand-in for the Rank runtime.
const poisonSrc = `package app

type PS struct{}

func (*PS) Push(int)       {}
func (*PS) Pop()           {}
func (*PS) Resuming() bool { return false }
func (*PS) Resume() int    { return 0 }

type Rank struct{}

func (*Rank) PS() *PS              { return nil }
func (*Rank) Register(string, any) {}
func (*Rank) Unregister()          {}
func (*Rank) Touch(...string)      {}
func (*Rank) PotentialCheckpoint() {}

func fill(r *Rank, n, iters int) float64 {
	var it int
	var f = make([]float64, n)
	var b = make([]byte, n)
	var k = make([]int, n)
	var w = make([]int64, n)
	var sum float64
	for ; it < iters; it++ {
		r.PotentialCheckpoint()
		for i := range f {
			f[i] = float64(it)
		}
		for i := range b {
			b[i] = byte(it)
		}
		for i := range k {
			k[i] = it
		}
		for i := range w {
			w[i] = int64(it)
		}
		sum += f[0] + float64(b[0]) + float64(k[0]) + float64(w[0])
	}
	return sum
}
`

// TestPoisonedOutputTypeChecks: the oracle's generation fills each dead
// buffer on the restart path, imports math for the NaN, and type-checks;
// the plain generation carries no fill.
func TestPoisonedOutputTypeChecks(t *testing.T) {
	plain, err := Transform([]File{{Name: "app.go", Src: []byte(poisonSrc)}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fill.f", "fill.b", "fill.k", "fill.w"}; !reflect.DeepEqual(plain.Dead, want) {
		t.Fatalf("dead %v, want %v", plain.Dead, want)
	}
	if strings.Contains(string(plain.Files[0]), "ccift_i") {
		t.Fatalf("the plain generation poisons:\n%s", plain.Files[0])
	}
	res, err := TransformPoisoned([]File{{Name: "app.go", Src: []byte(poisonSrc)}})
	if err != nil {
		t.Fatal(err)
	}
	out := string(res.Files[0])
	for _, want := range []string{"f[ccift_i] = math.NaN()", "b[ccift_i] = 0xA5", "k[ccift_i] = -0x5A5A5A5B", "w[ccift_i] = -0x5A5A5A5A5A5A5A5B"} {
		if !strings.Contains(out, want) {
			t.Errorf("poisoned output lacks %q", want)
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "app.go", out, 0)
	if err != nil {
		t.Fatalf("poisoned output does not parse: %v\n%s", err, out)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("app", fset, []*ast.File{f}, nil); err != nil {
		t.Fatalf("poisoned output does not type-check: %v\n%s", err, out)
	}
}
