package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// environment is recorded in every result: two results are comparable only
// when the fields compare() names agree.
type environment struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	// LLCBytes is the last-level cache size the kernel reports for cpu0.
	// MB/s probes on a state under four times this are cache-resident: they
	// measure the cache, not memory, and are labelled so.
	LLCBytes int64 `json:"llc_bytes"`
	// ScratchFS is the filesystem type under the store directories; on tmpfs
	// fsync is free and every storage time is optimistic.
	ScratchFS     string `json:"scratch_fs"`
	ScratchFSNote string `json:"scratch_fs_note,omitempty"`
}

func readEnvironment(scratch string) environment {
	e := environment{
		Commit: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), ScratchFS: fsType(scratch),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	e.LLCBytes = lastLevelCache()
	if e.ScratchFS == "tmpfs" {
		e.ScratchFSNote = "tmpfs: fsync is free, storage times are optimistic"
	}
	return e
}

// lastLevelCache reads the largest cache index sysfs lists for cpu0.
func lastLevelCache() int64 {
	var best int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		b, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			best = max(best, n*mult)
		}
	}
	return best
}

// fsType names the filesystem under path from its statfs magic number.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%X", uint32(st.Type))
}
