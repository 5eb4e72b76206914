package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint identifies the machine and build a report was measured on:
// numbers from different fingerprints are not comparable.
func fingerprint() map[string]string {
	fp := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"revision":   "unknown",
	}
	model, flags := cpuInfo()
	fp["cpu"] = model
	var simd []string
	for _, f := range []string{"avx2", "avx512f"} {
		if flags[f] {
			simd = append(simd, f)
		}
	}
	fp["simd"] = strings.Join(simd, ",")
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp["revision"] = s.Value
			case "vcs.modified":
				fp["modified"] = s.Value
			}
		}
	}
	return fp
}

// cpuInfo reads the CPU model name and feature flags from /proc/cpuinfo;
// both are empty where that file does not exist.
func cpuInfo() (model string, flags map[string]bool) {
	flags = map[string]bool{}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "", flags
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			if len(flags) == 0 {
				for _, fl := range strings.Fields(val) {
					flags[fl] = true
				}
			}
		}
	}
	return model, flags
}
