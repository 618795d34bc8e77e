package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
)

// resetPeakRSS returns freed heap to the OS and resets the process's
// peak resident set size (VmHWM) to its current size, so the next
// peakRSS reading covers one run only. Linux: writing 5 to
// /proc/self/clear_refs resets the high-water mark.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS returns the process's peak resident set size since the last
// reset, in MB (10^6 bytes).
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		fields := bytes.Fields(sc.Bytes())
		if len(fields) == 3 && string(fields[0]) == "VmHWM:" {
			kb, err := strconv.ParseInt(string(fields[1]), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("read peak RSS: %w", err)
			}
			return float64(kb) * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM in /proc/self/status")
}
