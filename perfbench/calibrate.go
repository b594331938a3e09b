package main

import "time"

// refKernelCPU is the CPU time the calibration kernel is scaled to: a
// timed figure is reported as the CPU it took times refKernelCPU over
// the CPU the kernel took in the same run, that is, as it would read on
// a host where the kernel takes exactly this long.
const refKernelCPU = 250 * time.Millisecond

// calibrate runs a fixed amount of work and returns the process CPU
// time it took. The work is what the simulator's time is most sensitive
// to on a shared host: short-lived small allocations, so the allocator,
// the garbage collector and memory bandwidth, with a little pointer
// chasing. It never changes, so its CPU time measures how fast the host
// runs this kind of code right now; on the 2-vCPU test host that speed
// swung by a factor of three within an hour.
func calibrate() time.Duration {
	type node struct {
		id   uint64
		next *node
		buf  []byte
	}
	cpu0 := processCPU()
	ring := make([]*node, 4096)
	var head *node
	for i := 0; i < 3_000_000; i++ {
		n := &node{id: uint64(i), next: head, buf: make([]byte, 48)}
		ring[i&4095] = n
		if i%64 == 0 {
			head = nil
		} else {
			head = n
		}
	}
	calibrateSink = ring[len(ring)-1].id
	return processCPU() - cpu0
}

// calibrateSink keeps the kernel's result alive.
var calibrateSink uint64

// hostScale is the factor that brings CPU times measured in a run to
// the reference host speed: refKernelCPU over the median of the run's
// kernel times. Each kernel ran just before a timed build, production
// or repetition.
func hostScale(kernels []float64) float64 {
	return refKernelCPU.Seconds() / median(kernels)
}
