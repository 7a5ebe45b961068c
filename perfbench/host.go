package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host identifies the machine a report was taken on, so reports from
// different hosts can be compared through the calibration loop.
type host struct {
	CPU           string `json:"cpu"`
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Go            string `json:"go"`
	CalibrationNs int64  `json:"calibration_ns"`
}

func fingerprint() host {
	return host{
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Go:            runtime.Version(),
		CalibrationNs: calibrate().Nanoseconds(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

var calibrationSink uint64

// calibrate times a fixed single-threaded integer loop (median of three).
func calibrate() time.Duration {
	var runs sample
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint64(r + 1)
		for i := 0; i < 1<<24; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 33
		}
		calibrationSink += x
		runs = append(runs, float64(time.Since(start)))
	}
	return time.Duration(runs.median())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTicks returns the machine's total and stolen CPU time in clock ticks
// from /proc/stat. Time stolen by other guests of the host slows every
// timing of a run, so the report prints its share.
func cpuTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is already
	// counted in user.
	for i, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}
