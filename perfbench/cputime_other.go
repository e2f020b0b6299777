//go:build !linux

package main

import "time"

var clockBase = time.Now()

// threadCPU falls back to the monotonic wall clock where per-thread CPU
// clocks are not read: figures then include time the thread was
// descheduled.
func threadCPU() int64 { return int64(time.Since(clockBase)) }

// processCPU falls back to the monotonic wall clock, as threadCPU.
func processCPU() int64 { return int64(time.Since(clockBase)) }
