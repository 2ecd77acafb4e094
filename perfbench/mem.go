package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"unsafe"
)

// arena holds the harness's off-heap buffers until the run ends.
type arena struct{ unmaps []func() error }

// alloc returns n zeroed Ts in anonymous memory mapped outside the Go
// heap, every page already touched. The harness keeps its query list and
// per-query buffers there, so they are resident before the memory
// baseline is taken and stay out of max_rss_mb as a run fills them, and
// they do not raise the heap target that paces the program's own
// garbage. T must hold no pointers.
func alloc[T any](a *arena, n int) ([]T, error) {
	size := int(unsafe.Sizeof(*new(T))) * max(n, 1)
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes: %w", size, err)
	}
	a.unmaps = append(a.unmaps, func() error { return syscall.Munmap(b) })
	for i := 0; i < len(b); i += os.Getpagesize() {
		b[i] = 0
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

func (a *arena) free() error {
	var err error
	for _, f := range a.unmaps {
		if ferr := f(); err == nil {
			err = ferr
		}
	}
	a.unmaps = nil
	return err
}

// resetPeakRSS returns what the harness no longer holds to the operating
// system, resets the kernel's peak-RSS mark of the process to its current
// RSS, and returns that RSS in KiB: the baseline max_rss_mb is measured
// from.
func resetPeakRSS() (int64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return procStatusKiB("VmHWM")
}

// procStatusKiB reads one memory field, in KiB, of /proc/self/status.
func procStatusKiB(field string) (int64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		name, rest, ok := bytes.Cut(sc.Bytes(), []byte(":"))
		if !ok || string(name) != field {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			break
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("/proc/self/status has no %s field", field)
}
