// Command c3admin inspects and maintains ccift checkpoint stores — the
// shared directories distributed runs (c3run -distributed, any Launch with
// WithDistributed) checkpoint into. It is a thin CLI over the
// public ccift/store package.
//
// Usage:
//
//	c3admin summary <storedir>             # committed epoch, volumes, dedup ratio
//	c3admin jobs <root>                    # find every store under a root dir
//	c3admin epochs <storedir>              # per-epoch, per-rank artifact table
//	c3admin manifest <storedir> <epoch> <rank>
//	c3admin chunks <storedir>              # chunk refcounts, most-shared first
//	c3admin orphans <storedir>             # chunks no manifest references
//	c3admin verify <storedir>              # re-hash every chunk against its manifest
//	c3admin prune <storedir> [-keep N] [-apply]
//
// Every subcommand except "prune -apply" is read-only and safe against a
// live job's store. Exit codes follow the ccift error taxonomy (see
// ccift.ExitCode): 2 for usage/spec errors, 4 for store errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"ccift"
	"ccift/store"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(ccift.ExitCode(ccift.ErrSpec))
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "summary":
		err = withStore(rest, cmdSummary)
	case "jobs":
		err = cmdJobs(rest)
	case "epochs":
		err = withStore(rest, cmdEpochs)
	case "manifest":
		err = cmdManifest(rest)
	case "chunks":
		err = withStore(rest, cmdChunks)
	case "orphans":
		err = withStore(rest, cmdOrphans)
	case "verify":
		err = withStore(rest, cmdVerify)
	case "prune":
		err = cmdPrune(rest)
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "c3admin: unknown command %q\n", cmd)
		usage()
		os.Exit(ccift.ExitCode(ccift.ErrSpec))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "c3admin: %v\n", err)
		os.Exit(ccift.ExitCode(err))
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `c3admin inspects ccift checkpoint stores.

  c3admin summary  <storedir>                  store-wide health report
  c3admin jobs     <root>                      stores found under a root dir
  c3admin epochs   <storedir>                  per-epoch artifact table
  c3admin manifest <storedir> <epoch> <rank>   one state blob's chunk list
  c3admin chunks   <storedir>                  chunk refcounts and sizes
  c3admin orphans  <storedir>                  unreferenced chunks
  c3admin verify   <storedir>                  re-hash every chunk against
                                               its manifest's content address
  c3admin prune    <storedir> [-keep N] [-apply]
                                               dry-run by default; -keep
                                               defaults to the committed epoch
`)
}

// withStore runs f on the store named by the single directory argument.
func withStore(args []string, f func(*store.Store) error) error {
	if len(args) != 1 {
		usage()
		return fmt.Errorf("%w: expected exactly one store directory argument", ccift.ErrSpec)
	}
	st, err := store.Open(args[0])
	if err != nil {
		return err
	}
	return f(st)
}

func cmdSummary(st *store.Store) error {
	s, err := st.Summary()
	if err != nil {
		return err
	}
	fmt.Printf("store:     %s\n", s.Dir)
	if s.HasCommit {
		fmt.Printf("committed: epoch %d\n", s.CommittedEpoch)
	} else {
		fmt.Printf("committed: none (no recoverable checkpoint)\n")
	}
	fmt.Printf("epochs:    %d\n", s.Epochs)
	fmt.Printf("logical:   %s state referenced by manifests\n", humanBytes(s.LogicalBytes))
	fmt.Printf("chunks:    %d unique, %s stored (dedup saved %.1f%%)\n",
		s.Chunks, humanBytes(s.ChunkBytes), 100*s.DedupRatio)
	fmt.Printf("orphans:   %d chunks, %s (reclaimed by prune)\n", s.Orphans, humanBytes(s.OrphanBytes))
	return nil
}

func cmdJobs(args []string) error {
	if len(args) != 1 {
		usage()
		return fmt.Errorf("%w: expected exactly one root directory argument", ccift.ErrSpec)
	}
	jobs, err := store.Jobs(args[0])
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		fmt.Printf("no checkpoint stores under %s\n", args[0])
		return nil
	}
	fmt.Printf("%-8s  %-9s  %s\n", "EPOCHS", "COMMITTED", "STORE")
	for _, j := range jobs {
		committed := "none"
		if j.HasCommit {
			committed = fmt.Sprintf("%d", j.CommittedEpoch)
		}
		fmt.Printf("%-8d  %-9s  %s\n", j.Epochs, committed, j.Dir)
	}
	return nil
}

func cmdEpochs(st *store.Store) error {
	epochs, err := st.Epochs()
	if err != nil {
		return err
	}
	if len(epochs) == 0 {
		fmt.Println("store holds no epochs")
		return nil
	}
	fmt.Printf("%-7s  %-5s  %-10s  %-10s  %-10s  %s\n", "EPOCH", "RANKS", "APP STATE", "LOGS", "RECORDS", "")
	for _, e := range epochs {
		mark := ""
		if e.Committed {
			mark = "<- committed"
		}
		fmt.Printf("%-7d  %-5d  %-10s  %-10s  %-10s  %s\n",
			e.Epoch, len(e.Ranks), humanBytes(e.StateBytes), humanBytes(e.LogBytes), humanBytes(e.MetaBytes), mark)
	}
	return nil
}

func cmdManifest(args []string) error {
	if len(args) != 3 {
		usage()
		return fmt.Errorf("%w: expected <storedir> <epoch> <rank>", ccift.ErrSpec)
	}
	var epoch, rank int
	if _, err := fmt.Sscanf(args[1], "%d", &epoch); err != nil {
		return fmt.Errorf("%w: epoch %q is not a number", ccift.ErrSpec, args[1])
	}
	if _, err := fmt.Sscanf(args[2], "%d", &rank); err != nil {
		return fmt.Errorf("%w: rank %q is not a number", ccift.ErrSpec, args[2])
	}
	st, err := store.Open(args[0])
	if err != nil {
		return err
	}
	m, err := st.Manifest(epoch, rank)
	if err != nil {
		return err
	}
	fmt.Printf("key:     %s\n", m.Key)
	fmt.Printf("logical: %s\n", humanBytes(m.LogicalBytes))
	fmt.Printf("format:  chunk manifest, %d refs\n", len(m.Refs))
	for i, r := range m.Refs {
		fmt.Printf("  [%4d] %s  %s\n", i, r.Hash, humanBytes(r.Bytes))
	}
	return nil
}

func cmdChunks(st *store.Store) error {
	chunks, err := st.Chunks()
	if err != nil {
		return err
	}
	if len(chunks) == 0 {
		fmt.Println("store holds no chunks")
		return nil
	}
	fmt.Printf("%-6s  %-10s  %s\n", "REFS", "BYTES", "CHUNK")
	for _, c := range chunks {
		fmt.Printf("%-6d  %-10s  %s\n", c.Refs, humanBytes(c.Bytes), c.Hash)
	}
	return nil
}

func cmdOrphans(st *store.Store) error {
	orphans, err := st.Orphans()
	if err != nil {
		return err
	}
	if len(orphans) == 0 {
		fmt.Println("no orphaned chunks")
		return nil
	}
	var total int64
	for _, c := range orphans {
		fmt.Printf("%-10s  %s\n", humanBytes(c.Bytes), c.Hash)
		total += c.Bytes
	}
	fmt.Printf("%d orphaned chunks, %s (reclaimed by prune)\n", len(orphans), humanBytes(total))
	return nil
}

func cmdVerify(st *store.Store) error {
	rep, err := st.Verify()
	if err != nil {
		return err
	}
	fmt.Printf("checked %d manifests, re-hashed %d unique chunks, %s\n",
		rep.Manifests, rep.ChunksHashed, humanBytes(rep.BytesHashed))
	if len(rep.Issues) == 0 {
		fmt.Println("store is intact: every chunk hashes to its content address")
		return nil
	}
	for _, i := range rep.Issues {
		fmt.Printf("  CORRUPT %s\n", i)
	}
	return fmt.Errorf("%w: verification found %d issues", ccift.ErrStore, len(rep.Issues))
}

func cmdPrune(args []string) error {
	fs := flag.NewFlagSet("prune", flag.ContinueOnError)
	keep := fs.Int("keep", -1, "newest epoch to keep (default: the committed epoch)")
	apply := fs.Bool("apply", false, "actually delete (default is a dry run)")
	fs.Usage = usage
	if len(args) < 1 {
		usage()
		return fmt.Errorf("%w: expected a store directory argument", ccift.ErrSpec)
	}
	if err := fs.Parse(args[1:]); err != nil {
		return fmt.Errorf("%w: %w", ccift.ErrSpec, err)
	}
	st, err := store.Open(args[0])
	if err != nil {
		return err
	}
	plan, err := st.PrunePlan(*keep)
	if err != nil {
		return err
	}
	fmt.Printf("keep epoch %d: delete %d keys (%d stale epochs), reclaim %s\n",
		plan.KeepEpoch, len(plan.Keys), len(plan.Epochs), humanBytes(plan.ReclaimBytes))
	for _, k := range plan.Keys {
		fmt.Printf("  %s\n", k)
	}
	if !*apply {
		fmt.Println("dry run; pass -apply to delete (only when no job is writing the store)")
		return nil
	}
	if err := st.Prune(plan); err != nil {
		return err
	}
	fmt.Println("pruned")
	return nil
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
