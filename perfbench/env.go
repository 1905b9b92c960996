package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// envHeader describes the machine a run measured: the numbers mean
// little without it.
type envHeader struct {
	NumCPU         int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Kernel         string  `json:"kernel"`
	WALFilesystem  string  `json:"wal_filesystem"`
	SleepOvershoot float64 `json:"sleep_50us_overshoot_us"`
}

func readEnv(walRoot string) envHeader {
	kernel, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		kernel = []byte("unknown")
	}
	return envHeader{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		Kernel:         strings.TrimSpace(string(kernel)),
		WALFilesystem:  fsType(walRoot),
		SleepOvershoot: sleepOvershoot(),
	}
}

func (e envHeader) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s kernel=%s wal_fs=%s sleep(50us)_overshoot=%.0fus",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.WALFilesystem, e.SleepOvershoot)
}

// Filesystem magic numbers from statfs(2).
var fsMagic = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x858458F6: "ramfs",
	0x794C7630: "overlayfs",
	0x2FC12FC1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x01021997: "v9fs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// memoryBacked reports whether fsync on this filesystem costs nothing,
// which would make a durable workload's numbers meaningless.
func memoryBacked(fs string) bool { return fs == "tmpfs" || fs == "ramfs" }

// sleepOvershoot is the median amount by which time.Sleep(50µs)
// overshoots. On a box where it is large, any open-loop generator that
// sleeps between sends measures its own timer; the closed loop here
// does not sleep.
func sleepOvershoot() float64 {
	const want = 50 * time.Microsecond
	d := make([]float64, 21)
	for i := range d {
		t := time.Now()
		time.Sleep(want)
		d[i] = float64(time.Since(t)-want) / 1e3
	}
	slices.Sort(d)
	return d[len(d)/2]
}
