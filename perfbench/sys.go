package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo identifies the machine a run measured, so a noisy set of runs
// can be told apart from a noisy benchmark.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// StealTicks are the /proc/stat steal ticks (USER_HZ) across the
	// measured loop: time the hypervisor ran someone else on our CPUs.
	StealTicks int64 `json:"steal_ticks"`
}

func newHostInfo() hostInfo {
	return hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// procSnap is the process-wide resource use at one instant.
type procSnap struct {
	cpu    time.Duration // user + system CPU time
	alloc  uint64        // cumulative heap bytes allocated
	numGC  uint32
	pauses uint64 // cumulative GC stop-the-world ns
	steal  int64
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  ms.TotalAlloc,
		numGC:  ms.NumGC,
		pauses: ms.PauseTotalNs,
		steal:  stealTicks(),
	}
}

// stealTicks reads the aggregate steal column of /proc/stat; -1 where the
// file is unavailable.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			v, err := strconv.ParseInt(fields[8], 10, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read VmHWM: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
