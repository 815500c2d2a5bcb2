// Command ccift is the CCIFT precompiler (paper Section 5.1): it reads
// C/MPI-style Go sources — ordinary programs whose only fault-tolerance
// provision is calls to PotentialCheckpoint — and emits instrumented
// sources that save and restore their own state through the Position Stack
// and Variable Descriptor Stack runtime.
//
// Usage:
//
//	ccift file.go                 # transformed source on stdout
//	ccift -o out.go file.go       # transformed source to out.go
//	ccift -d outdir a.go b.go     # whole package, one output per input
//
// All files of one invocation are treated as a single package, so the
// checkpointable-function analysis crosses file boundaries.
//
// A variable the liveness analysis proves dead at every checkpoint site is
// left out of the checkpoint; ccift names each on stderr, and each variable
// dead at some sites only, which stays registered.
//
// The emitted Register / deferred Unregister pairs are depth-verified at
// runtime: an instrumented scope that unregisters without having
// registered (or pops a descriptor pushed behind the Rank's back) panics
// naming the variables involved, instead of silently corrupting the VDS.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ccift/internal/precompiler"
)

func main() {
	out := flag.String("o", "", "output file (single input only; default stdout)")
	dir := flag.String("d", "", "output directory (multiple inputs)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccift [-o out.go | -d outdir] file.go [file2.go ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Args(), *out, *dir); err != nil {
		fmt.Fprintf(os.Stderr, "ccift: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out, dir string) error {
	if out != "" && len(args) > 1 {
		return fmt.Errorf("-o works with a single input; use -d for a package")
	}
	files := make([]precompiler.File, len(args))
	for i, name := range args {
		src, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		files[i] = precompiler.File{Name: name, Src: src}
	}
	res, err := precompiler.Transform(files)
	if err != nil {
		return err
	}
	for _, v := range res.Dead {
		fmt.Fprintf(os.Stderr, "ccift: %s is dead at every checkpoint site: not saved\n", v)
	}
	for _, v := range res.Mixed {
		fmt.Fprintf(os.Stderr, "ccift: %s is dead at some checkpoint sites and live at others: saved\n", v)
	}
	transformed := res.Files
	switch {
	case dir != "":
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for i, t := range transformed {
			dst := filepath.Join(dir, filepath.Base(args[i]))
			if err := os.WriteFile(dst, t, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "ccift: wrote %s\n", dst)
		}
	case out != "":
		return os.WriteFile(out, transformed[0], 0o644)
	default:
		_, err := os.Stdout.Write(transformed[0])
		return err
	}
	return nil
}
