package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// stampEnv describes where and on what a run measured: CPUs, Go
// version, the source it built, the seed, the fsync policy and the
// filesystem that holds the WAL.
func stampEnv(root, dir string, seed uint64, wl workload) string {
	fsync := "none (memory-only)"
	if wl.durable {
		fsync = walFsync.String() + " (snapshots off)"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s source_sha256=%s seed=%d fsync=%s wal_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), sourceHash(root),
		seed, fsync, fsType(dir))
}

// commit is the git revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	return rev + dirty
}

// sourceHash fingerprints the Go sources under root (hidden directories
// skipped), so a run outside git still names the code it measured.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		if r, err := os.Open(f); err == nil {
			io.Copy(h, r)
			r.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x65735546: "fuse", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x858458f6: "ramfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
