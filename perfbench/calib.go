package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// calReference is the calibration kernel's time on the reference host the
// CPU-bound workloads' timings are scaled to: about its time on an idle
// 2-core x86-64 VM of the kind this benchmark was written on.
const calReference = 3 * time.Millisecond

// calTable and calVecs are the calibration kernel's working set: 2 MiB of
// table and two 4096-float vectors, allocated once.
var (
	calTable = make([]uint64, 1<<18)
	calVecs  = [2][]float32{make([]float32, 4096), make([]float32, 4096)}
	calSink  uint64
)

// calibrate runs a fixed amount of allocation-free work (a pseudo-random
// walk over a table larger than an L2 cache and dense dot products, as in
// the crawl's vector code) and returns its wall and thread CPU time. It
// measures the host's speed at the moment: it allocates nothing, so it
// neither triggers nor assists GC, and its thread CPU time leaves out the
// crawl's GC workers on the other threads.
func calibrate() (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, t0 := threadCPUTime(), time.Now()
	x, acc := uint64(88172645463325252), uint64(1)
	mask := uint64(len(calTable) - 1)
	for i := 0; i < 150_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		calTable[j] += acc
		acc += calTable[(j*31)&mask]
	}
	var dot float32
	for r := 0; r < 200; r++ {
		a, b := calVecs[0], calVecs[1]
		for i := range a {
			a[i] = float32(i+r) * 0.5
			dot += a[i] * b[i]
			b[i] = a[i] * 1e-3
		}
	}
	calSink += acc + uint64(dot)
	return time.Since(t0), threadCPUTime() - c0
}

// threadCPUTime is the calling thread's CPU time: unlike the process's, it
// leaves out GC workers running on other threads.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// warmCalibration runs the kernel a few times so that its table is paged in
// before the first measured run.
func warmCalibration() {
	for range 3 {
		calibrate()
	}
}
