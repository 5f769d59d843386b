//go:build !linux

package main

const hostCPUsEnv = "ACTOP_BENCH_HOST_CPUS"

// confine is a no-op where there is no sched_setaffinity: the run uses
// every CPU it is given, and its header says so.
func confine(int) error { return nil }
