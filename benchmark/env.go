package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// environment is stamped into every result file: two results can be
// compared only if they were measured on the same kind of box.
type environment struct {
	Cores        int     `json:"cores"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Kernel       string  `json:"kernel"`
	Filesystem   string  `json:"filesystem"`
	Commit       string  `json:"commit"`
	Clients      int     `json:"clients"`
	FdatasyncP50 float64 `json:"env.fdatasync_us_p50"`
	// Comparable is false for results that must not gate anything: taken
	// on tmpfs, where fdatasync is free, or on fewer than two cores.
	Comparable bool     `json:"comparable"`
	Notes      []string `json:"notes"`
}

var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
}

// readEnvironment describes the box and the directory the heaps will live
// in; dir must exist.
func readEnvironment(dir string) (environment, error) {
	e := environment{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Clients: clients,
		Notes: []string{
			"reads are probably served from the operating system's page cache, and fdatasync may be cheap: latencies are this sandbox's, not a device's",
			"load is a closed loop of 2 client goroutines in one process",
		},
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(rel))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return e, fmt.Errorf("statfs %s: %w", dir, err)
	}
	e.Filesystem = fsNames[int64(st.Type)]
	if e.Filesystem == "" {
		e.Filesystem = fmt.Sprintf("0x%x", st.Type)
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	p50, _, err := probeFdatasync(dir)
	if err != nil {
		return e, fmt.Errorf("fdatasync on %s: %w", dir, err)
	}
	e.FdatasyncP50 = p50
	e.Comparable = e.Filesystem != "tmpfs" && e.Cores >= 2
	return e, nil
}
