//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// hostCPUsEnv carries the CPU count the process was given into its
// confined re-execution, for the header.
const hostCPUsEnv = "ACTOP_BENCH_HOST_CPUS"

// confine restricts the process, every thread of it, to n of the CPUs it
// is allowed — the highest-numbered, CPU 0 being where a guest's interrupts
// land. It narrows this thread's affinity mask and re-executes the binary:
// the new image inherits the mask, every thread it starts inherits it in
// turn, and the Go runtime sizes GOMAXPROCS from it. It returns only when
// there is nothing to do (no more than n CPUs allowed) or on an error.
func confine(n int) error {
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var allowed []int
	for cpu := 0; cpu < 64*len(mask); cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			allowed = append(allowed, cpu)
		}
	}
	if len(allowed) <= n {
		return nil
	}
	mask = [16]uint64{}
	for _, cpu := range allowed[len(allowed)-n:] {
		mask[cpu/64] |= 1 << (cpu % 64)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runtime.LockOSThread() // the mask is this thread's until the exec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	os.Setenv(hostCPUsEnv, fmt.Sprint(len(allowed)))
	return fmt.Errorf("re-execute %s: %w", exe, syscall.Exec(exe, os.Args, os.Environ()))
}
