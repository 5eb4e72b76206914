package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Peak memory is read from the kernel's per-image high-water mark (VmHWM
// in /proc/<pid>/status), not from getrusage: a process that os/exec
// starts (a vfork, then exec) inherits its parent's resident-set
// high-water mark as its maxrss, so a proc-backend worker would report
// at least the master's peak at the moment it was spawned. VmHWM starts
// afresh at exec.

// vmHWM returns the VmHWM of the process whose status file is path, in
// KiB, or 0 when the file cannot be read (the process has exited).
func vmHWM(path string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kib
		}
	}
	return 0
}

// childSampler tracks the largest VmHWM among this process's child
// processes while they live.
type childSampler struct {
	stop, done chan struct{}
	peak       int64
}

// sampleChildren starts sampling every interval until finish is called.
func sampleChildren(interval time.Duration) *childSampler {
	s := &childSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			for _, pid := range childPIDs() {
				s.peak = max(s.peak, vmHWM(fmt.Sprintf("/proc/%d/status", pid)))
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak it saw, in KiB.
func (s *childSampler) finish() int64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// childPIDs lists the live children of this process; any thread may
// have started one.
func childPIDs() []int {
	files, _ := filepath.Glob("/proc/self/task/*/children")
	var pids []int
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, field := range strings.Fields(string(b)) {
			if pid, err := strconv.Atoi(field); err == nil {
				pids = append(pids, pid)
			}
		}
	}
	return pids
}
