package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"

	"apres/internal/version"
)

// host is the fingerprint stored with every result, so numbers from hosts
// with different thread counts are never compared.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"goVersion"`
	Version    string `json:"version"`
}

func fingerprint() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        procField("/proc/cpuinfo", "model name"),
		GoVersion:  runtime.Version(),
		Version:    version.Stamp(),
	}
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "" when the file or key is missing (non-Linux hosts).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB. Where
// /proc is missing it falls back to the Go runtime's view of memory obtained
// from the OS, which is never 0.
func peakRSSMB() float64 {
	if f := strings.Fields(procField("/proc/self/status", "VmHWM")); len(f) > 0 {
		if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
			return kb / 1024
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
