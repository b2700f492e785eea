package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStart approximates process start: package variables initialise
// before main, a few hundred microseconds after exec.
var procStart = time.Now()

// usage is a snapshot of the process counters a measured window is
// charged with; windows are differences of two snapshots.
type usage struct {
	cpu      time.Duration // user + system
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
}

// cpuNow is the process's user + system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readUsage also reads the allocator's counters, which stops the world:
// call it at the ends of a phase, not inside one.
func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:      cpuNow(),
		mallocs:  m.Mallocs,
		bytes:    m.TotalAlloc,
		gcCycles: m.NumGC,
		gcPause:  time.Duration(m.PauseTotalNs),
	}
}

func (u usage) since(prev usage) usage {
	return usage{
		cpu:      u.cpu - prev.cpu,
		mallocs:  u.mallocs - prev.mallocs,
		bytes:    u.bytes - prev.bytes,
		gcCycles: u.gcCycles - prev.gcCycles,
		gcPause:  u.gcPause - prev.gcPause,
	}
}

func (u usage) plus(o usage) usage {
	return usage{
		cpu:      u.cpu + o.cpu,
		mallocs:  u.mallocs + o.mallocs,
		bytes:    u.bytes + o.bytes,
		gcCycles: u.gcCycles + o.gcCycles,
		gcPause:  u.gcPause + o.gcPause,
	}
}

// peakRSSMB reads VmHWM, the process's resident high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// fsTypeOf names the filesystem holding dir (the WAL's fsync cost depends
// on it): the mount whose mount point is the longest prefix of dir.
func fsTypeOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// commitOf asks git for the checked-out commit; the driver's checkout is
// not a repository, and then the stamp says so.
func commitOf(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// stamp records where a result came from.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Clients    int    `json:"clients"`
	WALFS      string `json:"wal_fs"`
	Time       string `json:"time"`
}

func newStamp(root, scratch string, seed int64, seconds, clients int) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
		Seed:       seed,
		Seconds:    seconds,
		Clients:    clients,
		WALFS:      fsTypeOf(scratch),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}
