//go:build linux

package main

import (
	"syscall"
	"unsafe"
)

// clock_gettime(2) clock IDs.
const (
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

func cpuClock(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return ts.Nano()
}

// threadCPU returns the calling thread's CPU time in ns. It measures a
// goroutine only while the goroutine is locked to its thread
// (runtime.LockOSThread). Time the thread spent descheduled, stolen by
// the hypervisor included, is not counted.
func threadCPU() int64 { return cpuClock(clockThreadCPU) }

// processCPU returns the CPU time of every thread of the process in ns,
// the runtime's collector included.
func processCPU() int64 { return cpuClock(clockProcessCPU) }
